(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's own code, around calls into
   each layer's public functions; the program under test is not
   instrumented.  One recorder belongs to one domain.  Every span carries
   the id of the replayed request it belongs to and the index of the
   span that was open when it started, so self time — a span's duration
   minus the part its children cover — falls out of one pass at the end.
   Nothing is written until [export]. *)

type t = {
  mutable on : bool;
  mutable n : int;
  mutable names : string array;
  mutable reqs : int array;
  mutable parents : int array;
  mutable t0 : float array;
  mutable t1 : float array;
  mutable stack : int list;
}

let create () =
  let cap = 1024 in
  {
    on = true;
    n = 0;
    names = Array.make cap "";
    reqs = Array.make cap 0;
    parents = Array.make cap (-1);
    t0 = Array.make cap 0.0;
    t1 = Array.make cap 0.0;
    stack = [];
  }

let now_us = Opprox_obs.Trace.now_us

let grow t =
  let cap = 2 * Array.length t.names in
  let g a x =
    let b = Array.make cap x in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- g t.names "";
  t.reqs <- g t.reqs 0;
  t.parents <- g t.parents (-1);
  t.t0 <- g t.t0 0.0;
  t.t1 <- g t.t1 0.0

let span t name ~req f =
  if not t.on then f ()
  else begin
    if t.n = Array.length t.names then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.names.(i) <- name;
    t.reqs.(i) <- req;
    t.parents.(i) <- (match t.stack with p :: _ -> p | [] -> -1);
    t.stack <- i :: t.stack;
    t.t0.(i) <- now_us ();
    let finish () =
      t.t1.(i) <- now_us ();
      t.stack <- List.tl t.stack
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* The recorded duration of an empty span: the clock read and the
   bookkeeping that land inside every span.  Callers subtract it per call
   from self times so the stages of a microsecond path are not inflated
   by their own measurement. *)
let empty_cost_us () =
  let t = create () in
  let n = 20_000 in
  for _ = 1 to n do
    span t "empty" ~req:0 (fun () -> ())
  done;
  let total = ref 0.0 in
  for i = 0 to t.n - 1 do
    total := !total +. (t.t1.(i) -. t.t0.(i))
  done;
  !total /. float_of_int n

(* Per span: the part of its duration its children cover. *)
let children t =
  let child = Array.make t.n 0.0 in
  for i = 0 to t.n - 1 do
    let p = t.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (t.t1.(i) -. t.t0.(i))
  done;
  child

(* Per name: (calls, total duration us, total self time us). *)
let summary t =
  let child = children t in
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let dur = t.t1.(i) -. t.t0.(i) in
    let c, d, s = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl t.names.(i)) in
    Hashtbl.replace tbl t.names.(i) (c + 1, d +. dur, s +. (dur -. child.(i)))
  done;
  tbl

(* Per replayed request 0 .. n-1: the summed self time (us) and the
   number of calls of the spans named in [names]. *)
let self_by_req t ~n names =
  let child = children t in
  let self = Array.make n 0.0 and calls = Array.make n 0 in
  for i = 0 to t.n - 1 do
    let r = t.reqs.(i) in
    if r >= 0 && r < n && List.mem t.names.(i) names then begin
      self.(r) <- self.(r) +. (t.t1.(i) -. t.t0.(i) -. child.(i));
      calls.(r) <- calls.(r) + 1
    end
  done;
  (self, calls)

let calls tbl name = match Hashtbl.find_opt tbl name with Some (c, _, _) -> c | None -> 0
let self_us tbl name = match Hashtbl.find_opt tbl name with Some (_, _, s) -> s | None -> 0.0
let total_us tbl name = match Hashtbl.find_opt tbl name with Some (_, d, _) -> d | None -> 0.0

(* Chrome trace-event JSON, one lane per replayed request. *)
let export t path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  for i = 0 to t.n - 1 do
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%d,\"parent\":%d}}"
      t.names.(i) t.reqs.(i) t.t0.(i) (t.t1.(i) -. t.t0.(i)) i t.parents.(i)
  done;
  output_string oc "\n]}\n";
  close_out oc
