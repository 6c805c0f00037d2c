(* In-memory spans and counters for the traced replay.

   A span is one call into a library layer: its name (named after the
   [lib/] module, e.g. "core.determine"), its start and end on the
   monotonic clock, the span that caused it, the net and pass it belongs
   to, the domain that ran it, and the words that domain allocated while
   it was open (children included).  Spans are kept in memory and
   written out when the benchmark ends.

   The current span stack, net and pass live in domain-local storage, so
   spans opened on {!Pool} worker domains attach to the batch span that
   submitted them (see {!batch}). *)

type t = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  name : string;
  net : string;
  pass : int;
  domain : int;
  start_ns : int;
  stop_ns : int;
  alloc_w : float;  (** words allocated on [domain] while open *)
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type ctx = { mutable net : string; mutable pass : int; mutable stack : int list }

let key = Domain.DLS.new_key (fun () -> { net = ""; pass = -1; stack = [] })
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 0

(* (pass, counter name) -> value *)
let counters : (int * string, float) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () =
  locked (fun () ->
      recorded := [];
      Hashtbl.reset counters)

(* Per-domain allocation: [Gc.counters] reads the calling domain's own
   statistics, which is the domain the span runs on. *)
let domain_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let set_context ~net ~pass =
  let c = Domain.DLS.get key in
  c.net <- net;
  c.pass <- pass;
  c.stack <- []

let record name f =
  let c = Domain.DLS.get key in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match c.stack with p :: _ -> p | [] -> -1 in
  c.stack <- id :: c.stack;
  let a0 = domain_words () in
  let t0 = now_ns () in
  let finish () =
    let t1 = now_ns () in
    let a1 = domain_words () in
    c.stack <- (match c.stack with _ :: rest -> rest | [] -> []);
    let s =
      {
        id;
        parent;
        name;
        net = c.net;
        pass = c.pass;
        domain = (Domain.self () :> int);
        start_ns = t0;
        stop_ns = t1;
        alloc_w = a1 -. a0;
      }
    in
    locked (fun () -> recorded := s :: !recorded)
  in
  Fun.protect ~finally:finish f

let add name v =
  let c = Domain.DLS.get key in
  locked (fun () ->
      let k = (c.pass, name) in
      Hashtbl.replace counters k
        (v +. Option.value (Hashtbl.find_opt counters k) ~default:0.0))

let max_ name v =
  let c = Domain.DLS.get key in
  locked (fun () ->
      let k = (c.pass, name) in
      match Hashtbl.find_opt counters k with
      | Some old when old >= v -> ()
      | _ -> Hashtbl.replace counters k v)

let count name = add name 1.0

(* [batch ~jobs f l] is [Pool.map_list ~jobs f l] inside an "exec.batch"
   span, with each application in an "exec.task" span whose parent is
   the batch, whichever domain runs it. *)
let batch ~jobs f l =
  record "exec.batch" (fun () ->
      let c = Domain.DLS.get key in
      let net = c.net and pass = c.pass and stack = c.stack in
      Pool.map_list ~jobs
        (fun x ->
          let w = Domain.DLS.get key in
          let saved_net = w.net and saved_pass = w.pass and saved = w.stack in
          w.net <- net;
          w.pass <- pass;
          w.stack <- stack;
          Fun.protect
            ~finally:(fun () ->
              w.net <- saved_net;
              w.pass <- saved_pass;
              w.stack <- saved)
            (fun () -> record "exec.task" (fun () -> f x)))
        l)

(* JSON string literal; span and net names are plain ASCII, but escape
   anything else rather than emit an invalid file. *)
let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | ch when Char.code ch < 0x20 || Char.code ch > 0x7e ->
        Printf.bprintf buf "\\u%04x" (Char.code ch)
      | ch -> Buffer.add_char buf ch)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let spans () = locked (fun () -> List.rev !recorded)

let counter ~pass name =
  locked (fun () -> Hashtbl.find_opt counters (pass, name))

(* Self time: a span's duration minus the part of its interval that the
   union of its children's intervals covers.  Children on other domains
   may overlap each other; the union counts that wall time once. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.stop_ns)
          :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  let self s =
    let kids =
      List.sort compare
        (Option.value (Hashtbl.find_opt children s.id) ~default:[])
    in
    let covered, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
          let a = max a (max reach s.start_ns) and b = min b s.stop_ns in
          if b > a then (acc + (b - a), b) else (acc, reach))
        (0, s.start_ns) kids
    in
    s.stop_ns - s.start_ns - covered
  in
  List.map (fun s -> (s, self s)) spans

(* Chrome trace-event JSON: one complete ("X") event per span, one track
   (tid) per domain, timestamps in microseconds from the first span. *)
let chrome_json spans =
  let t0 = List.fold_left (fun m s -> min m s.start_ns) max_int spans in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let domains = List.sort_uniq compare (List.map (fun s -> s.domain) spans) in
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string buf ",\n" in
  List.iter
    (fun d ->
      sep ();
      Printf.bprintf buf
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"domain %d\"}}"
        d d)
    domains;
  List.iter
    (fun s ->
      sep ();
      Printf.bprintf buf
        "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"net\":%s,\"pass\":%d,\"id\":%d,\"parent\":%d,\"alloc_words\":%.0f}}"
        (json_string s.name)
        (json_string
           (match String.index_opt s.name '.' with
           | Some i -> String.sub s.name 0 i
           | None -> s.name))
        s.domain
        (float (s.start_ns - t0) /. 1e3)
        (float (s.stop_ns - s.start_ns) /. 1e3)
        (json_string s.net) s.pass s.id s.parent s.alloc_w)
    spans;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
