(* OPPROX benchmark: one command, four seeded workloads.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   serve-lookup, serve-solve and serve-stream drive an [opprox serve]
   daemon at its default config over its Unix socket; train-plan runs the
   offline pipeline in-process.  With --trace 0 the last stdout line
   carries the end-to-end metrics; with --trace 1 it carries the
   per-layer metrics of a traced replay.  The report on stderr adds
   provenance, sample counts, quartiles and the cross-check against the
   committed BENCH_*.json estimates.  Why each workload exists and which
   end-to-end number each layer metric should move: perfbench/README.md. *)

module App = Opprox_sim.App
module Driver = Opprox_sim.Driver
module Protocol = Opprox_serve.Protocol
module Server = Opprox_serve.Server
module Plancache = Opprox_serve.Plancache
module Singleflight = Opprox_serve.Singleflight
module Corpus = Opprox_corpus.Corpus
module Key = Opprox_corpus.Key
module Optimizer = Opprox.Optimizer
module Diagnostic = Opprox_analysis.Diagnostic
module Lint_request = Opprox_analysis.Lint_request
module Metrics = Opprox_obs.Metrics
module Rng = Opprox_util.Rng
module Sexp = Opprox_util.Sexp
module Pool = Opprox_util.Pool
module Search = Opprox_search.Search

let now_us = Opprox_obs.Trace.now_us
let wall () = Unix.gettimeofday ()

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU time the host took from this VM (steal), in seconds, from
   /proc/stat; reported so a slow run can be told from a slow program. *)
let steal_s () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      (try Scanf.sscanf line "cpu %_d %_d %_d %_d %_d %_d %_d %d" (fun st -> float_of_int st /. 100.0)
       with Scanf.Scan_failure _ | End_of_file | Failure _ -> 0.0)
(* Wall time since [t0] less the CPU time the host took from this VM
   (steal) since [st0].  The offline pipeline's domains wait for each
   other, so a second taken from either vCPU delays it by about a
   second; an idle vCPU accrues no steal.  On a shared host, identical
   pipelines took 5.2-8.4 s of wall time with 0.2-2.7 s of steal, and
   5.0-5.7 s less steal. *)
let wall_less_steal ~t0 ~st0 =
  let w = wall () -. t0 and st = steal_s () -. st0 in
  (w -. st, w, st)

let say fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------- results *)

let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics
let failures : string list ref = ref []
let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      if List.length !failures < 20 then say "FAIL: %s" m;
      failures := m :: !failures)
    fmt

let print_result () =
  let ms = List.rev !metrics in
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    (!failures = []) (max 1 !attempted) !failed;
  List.iteri
    (fun i (name, v, unit) ->
      let v = if Float.is_finite v then v else -1.0 in
      Printf.bprintf buf "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        name v unit)
    ms;
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)

(* --------------------------------------------------------------- stats *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let pct s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let x = q /. 100.0 *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i >= n - 1 then s.(n - 1)
    else if Float.is_integer x || not (Float.is_finite s.(i + 1)) then s.(i)
    else s.(i) +. ((x -. float_of_int i) *. (s.(i + 1) -. s.(i)))

(* The highest percentile with at least ten samples beyond it, capped at
   99. *)
let tail_q n = Float.min 99.0 (Float.max 50.0 (100.0 *. (1.0 -. (10.0 /. float_of_int (max n 1)))))

let median a = pct (sorted a) 50.0

let describe name unit a =
  let s = sorted a in
  let n = Array.length s in
  say "  %-28s n=%-6d q1=%-10.4g median=%-10.4g q3=%-10.4g p%.1f=%-10.4g %s" name n (pct s 25.0)
    (pct s 50.0) (pct s 75.0) (tail_q n) (pct s (tail_q n)) unit

(* ---------------------------------------------------------- provenance *)

let command_line cmd =
  match Unix.open_process_args_in cmd.(0) cmd with
  | ic ->
      let line = try String.trim (input_line ic) with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      line
  | exception Unix.Unix_error _ -> ""

let source_digest () =
  let rec walk dir acc =
    Array.fold_left
      (fun acc f ->
        let p = Filename.concat dir f in
        if Sys.is_directory p then walk p acc
        else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then p :: acc
        else acc)
      acc
      (try Sys.readdir dir with Sys_error _ -> [||])
  in
  let files = List.sort compare (walk "lib" (walk "bin" [])) in
  Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file files)))

let provenance ~workload ~seed ~seconds ~trace =
  let commit =
    if not (Sys.file_exists ".git") then "none (not a git checkout)"
    else match command_line [| "git"; "rev-parse"; "--short=12"; "HEAD" |] with "" -> "unknown" | c -> c
  in
  [
    ("workload", workload);
    ("seed", string_of_int seed);
    ("seconds", string_of_int seconds);
    ("trace", string_of_int trace);
    ("commit", commit);
    ("source_md5", source_digest ());
    ("nproc", command_line [| "nproc" |]);
    ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
  ]

(* ---------------------------------------------------------- cross-check *)

(* Committed bechamel estimates, ns per run, by arm name. *)
let committed_estimates () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun file ->
      match open_in file with
      | exception Sys_error _ -> ()
      | ic ->
          (try
             while true do
               let line = input_line ic in
               try
                 Scanf.sscanf line " { \"name\": %S, \"ns_per_run\": %f" (fun name ns ->
                     Hashtbl.replace tbl name (file, ns))
               with Scanf.Scan_failure _ | End_of_file | Failure _ -> ()
             done
           with End_of_file -> ());
          close_in ic)
    [ "BENCH_serve.json"; "BENCH_corpus.json"; "BENCH_search.json" ];
  tbl

let cross_check pairs =
  let tbl = committed_estimates () in
  say "cross-check against committed estimates (read-only):";
  List.iter
    (fun (arm, ours_us, what) ->
      match Hashtbl.find_opt tbl arm with
      | None -> say "  %-22s no committed estimate" arm
      | Some _ when not (ours_us > 0.0) -> say "  %-22s not exercised on this workload" arm
      | Some (file, ns) ->
          let theirs = ns /. 1000.0 in
          let ratio = theirs /. ours_us in
          say "  %-22s %s says %10.2f us, measured %10.2f us (%s): ratio %.2f%s" arm file theirs
            ours_us what ratio
            (if ratio > 2.0 || ratio < 0.5 then "  DISAGREE >2x" else ""))
    pairs

(* ------------------------------------------------------------ the wire *)

let encode_request (r : Protocol.request) = Sexp.to_string (Protocol.request_to_sexp r)
let encode_telemetry tm = Sexp.to_string (Protocol.telemetry_to_sexp tm)
let plan_string plan = Sexp.to_string (Optimizer.plan_to_sexp plan)

(* What a request is expected to produce: the source it was built for
   and the plan an in-process reference computed for its key. *)
type expect = { src : string; reference : string Lazy.t; models : Opprox.Models.t; app : string }

(* Check one reply against its expectation; returns the reply source. *)
let check_reply (e : expect) payload =
  match Protocol.response_of_sexp (Sexp.of_string payload) with
  | exception (Failure m | Invalid_argument m) -> Error ("undecodable reply: " ^ m)
  | Protocol.Plan { plan; cache; _ } ->
      let src = Protocol.cache_source_string cache in
      if plan_string plan <> Lazy.force e.reference then
        Error (Printf.sprintf "%s plan (%s) differs from the in-process reference" e.app src)
      else if Diagnostic.errors (Optimizer.lint ~models:e.models plan) <> [] then
        Error (e.app ^ " plan fails Optimizer.lint")
      else Ok src
  | Protocol.Error ds ->
      Error
        (String.concat "; "
           (List.map (fun d -> Format.asprintf "%a" Diagnostic.pp d) ds))
  | Protocol.Timeout _ -> Error "timeout reply"
  | Protocol.Overloaded _ -> Error "shed (overloaded)"
  | Protocol.PlanDelta _ -> Error "plan delta in reply to a plan request"

let latencies_ms (items : Gen.item array) (res : Gen.result array) =
  Array.map
    (fun (it : Gen.item) ->
      let r = res.(it.id) in
      if r.error = "" && Float.is_finite r.reply_us then (r.reply_us -. it.due_us) /. 1000.0
      else infinity)
    items

let late_ms (items : Gen.item array) (res : Gen.result array) =
  Array.of_list
    (List.filter_map
       (fun (it : Gen.item) ->
         let r = res.(it.id) in
         if Float.is_finite r.sent_us then Some ((r.sent_us -. it.due_us) /. 1000.0) else None)
       (Array.to_list items))

(* Verify a phase's replies; counts sources, books failures.  [strict]:
   every exchange must succeed (nominal and warm-up phases); on the rate
   ladder a shed or a late reply only marks the rung as missed. *)
let verify ~phase ~strict (items : Gen.item array) (res : Gen.result array) (expects : expect array)
    =
  let counts = Hashtbl.create 8 in
  let wrong_src = ref 0 and misses = ref 0 in
  Array.iter
    (fun (it : Gen.item) ->
      let r = res.(it.id) in
      let e = expects.(it.id) in
      if strict then incr attempted;
      let miss why =
        incr misses;
        if strict then begin
          incr failed;
          fail "%s: request %d: %s" phase it.id why
        end
      in
      if r.error <> "" then miss r.error
      else
        match check_reply e r.reply with
        | Ok src ->
            Hashtbl.replace counts src (1 + Option.value ~default:0 (Hashtbl.find_opt counts src));
            if src <> e.src then incr wrong_src
        | Error ("shed (overloaded)" as m) | Error ("timeout reply" as m) -> miss m
        | Error m ->
            incr misses;
            if strict then incr failed;
            fail "%s: request %d: %s" phase it.id m)
    items;
  let c s = Option.value ~default:0 (Hashtbl.find_opt counts s) in
  (c, !wrong_src, !misses)

(* ---------------------------------------------------------- rate ladder *)

(* Run rungs in ascending order until one misses [limit_ms] at its
   median, sheds, fails, or builds a backlog (last quarter's median over
   the limit).  Rungs last about a second, too short for a steady tail
   percentile on a shared host, so the knee is located on the median;
   the tail is printed per rung.  The reported rate interpolates
   (log-log) between the last rung met and the first one missed, so it
   is a continuous measurement rather than a rung label. *)
let geometric r0 ratio n = List.init n (fun k -> r0 *. (ratio ** float_of_int k))

let ladder ~name ~rates ~limit_ms ~total_s run_rung =
  (* Three passes up the ladder, each a third of [total_s]; every rung of
     a pass gets the same expected request count.  The median of the
     three knees is reported, so a burst of host steal during one pass
     moves one estimate, not the result. *)
  let passes = 3 in
  let count =
    total_s /. float_of_int passes /. List.fold_left (fun acc r -> acc +. (1.0 /. r)) 0.0 rates
  in
  let run_rung rate = run_rung rate (count /. rate) in
  let rec go prev = function
    | [] -> (
        match prev with
        | Some (r, _) ->
            say "  %s: every rung met %.1f ms; ceiling not reached" name limit_ms;
            r
        | None -> nan)
    | rate :: rest -> (
        let lat, misses = run_rung rate in
        let s = sorted lat in
        let n = Array.length s in
        let tail = pct s (tail_q n) in
        let last_quarter = sorted (Array.sub lat (3 * n / 4) (n - (3 * n / 4))) in
        let backlog = pct last_quarter 50.0 > limit_ms in
        let p50 = pct s 50.0 in
        let met = misses = 0 && p50 <= limit_ms && not backlog in
        say "  %s rung %7.1f/s: n=%d p50=%.3f ms p%.1f=%.3f ms misses=%d%s -> %s" name rate n
          (pct s 50.0) (tail_q n) tail misses
          (if backlog then " backlog" else "")
          (if met then "met" else "missed");
        match (met, prev) with
        | true, _ -> go (Some (rate, p50)) rest
        | false, None ->
            let p50 = if Float.is_finite p50 then p50 else 1e3 *. limit_ms in
            rate *. Float.min 1.0 (limit_ms /. p50)
        | false, Some (r0, t0) ->
            let t1 = if Float.is_finite p50 && p50 > limit_ms then p50 else 1e3 *. limit_ms in
            let t0 = Float.max t0 1e-3 in
            let f = (log limit_ms -. log t0) /. (log t1 -. log t0) in
            let f = Float.max 0.0 (Float.min 1.0 f) in
            r0 *. ((rate /. r0) ** f))
  in
  let knees = Array.init passes (fun _ -> go None rates) in
  say "  %s knees %s req/s" name
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") knees)));
  median knees

(* ------------------------------------------------------------ prepare *)

type served = {
  dir : string;
  socket : string;
  model_files : string list;
  loaded : (string * Opprox.trained) list;
  corpus_path : string;
  entries : Corpus.entry list;
  offline_s : float;
}

let run_dir workload seed =
  let d = Printf.sprintf "perfbench/_work/%s-%d-%d" workload seed (Unix.getpid ()) in
  ignore (Sys.command ("mkdir -p " ^ Filename.quote d));
  d

let rm_rf d = ignore (Sys.command ("rm -rf " ^ Filename.quote d))

(* Timed offline pipeline for a daemon: train, persist, reload exactly as
   the daemon will, sweep the corpus over the budget grid, write it. *)
let prepare_served ~sp ~traced ~dir specs =
  let t0 = wall () and c0 = cpu_s () and st0 = steal_s () in
  let trained =
    List.map
      (fun (spec : Offline.spec) ->
        let t = wall () in
        let tr = if traced then Offline.train_decomposed sp spec else Offline.train spec in
        say "  trained %s in %.2f s" spec.name (wall () -. t);
        tr)
      specs
  in
  let model_files =
    List.map2
      (fun (s : Offline.spec) tr ->
        let f = Filename.concat dir (s.name ^ ".sexp") in
        Opprox.save f tr;
        f)
      specs trained
  in
  let loaded = List.map Offline.load model_files in
  let entries, progress =
    Spans.span sp "precompute.sweep" ~req:(-1) (fun () -> Offline.sweep loaded)
  in
  let corpus_path = Filename.concat dir "plans.opx" in
  Corpus.write corpus_path entries;
  let offline_s, w, st = wall_less_steal ~t0 ~st0 in
  say "offline: %d app(s) trained, %d corpus plan(s) (%d infeasible) in %.2f s (%.2f s wall, %.2f s steal, %.2f s CPU)"
    (List.length specs) progress.Opprox_corpus.Precompute.cells progress.Opprox_corpus.Precompute.failed
    offline_s w st (cpu_s () -. c0);
  let expected_hashes =
    List.map (fun (tr : Opprox.trained) -> (tr.Opprox.app.App.name, Opprox_corpus.Precompute.models_hash tr)) loaded
  in
  let diags = Corpus.lint_file ~expected_hashes corpus_path in
  if Diagnostic.errors diags <> [] then fail "corpus %s fails Corpus.lint_file" corpus_path;
  {
    dir;
    socket = Filename.concat dir "d.sock";
    model_files;
    loaded = List.map (fun (tr : Opprox.trained) -> (tr.Opprox.app.App.name, tr)) loaded;
    corpus_path;
    entries;
    offline_s;
  }

(* Daemon spawn until first reply, five times; the last daemon stays up.
   Returns the daemon and the median set-up time. *)
let start_daemon ~exe (s : served) ~first_payload =
  let spawn i =
    let log = Filename.concat s.dir (Printf.sprintf "daemon%d.log" i) in
    let t = wall () in
    let d = Daemon.spawn ~exe ~socket:s.socket ~models:s.model_files ~corpus:s.corpus_path ~log in
    let dt = Daemon.first_reply d ~socket:s.socket ~t_spawn:t ~payload:first_payload in
    (d, dt)
  in
  let times = ref [] in
  let rec go i =
    let d, dt = spawn i in
    times := dt :: !times;
    if i < 4 then begin
      ignore (Daemon.stop d);
      go (i + 1)
    end
    else d
  in
  let d = go 0 in
  let setup = Array.of_list !times in
  describe "setup_s (spawn->first reply)" "s" setup;
  (d, median setup)

let trained_of (s : served) app = List.assoc app s.loaded

(* -------------------------------------------------------- the schedules *)

(* Zipf(s) rank sampler over [n] items. *)
let zipf rng ~s n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (k + 1) ** s));
    cdf.(k) <- !acc
  done;
  fun () ->
    let u = Rng.uniform rng *. !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

type key = { kapp : string; kinput : float array; kbudget : float; kexpect : expect }

let make_items (keys : key array) dues =
  Array.mapi
    (fun i due ->
      let k = keys.(i) in
      {
        Gen.id = i;
        due_us = due;
        payload = encode_request (Protocol.request ~input:k.kinput ~app:k.kapp ~budget:k.kbudget ());
        conn = 0;
      })
    dues

(* Socket latency split by reply source. *)
let by_source (items : Gen.item array) res (expects : expect array) =
  let tbl = Hashtbl.create 4 in
  Array.iter
    (fun (it : Gen.item) ->
      let r = res.(it.Gen.id) in
      if r.Gen.error = "" then
        let l = (r.Gen.reply_us -. it.Gen.due_us) /. 1000.0 in
        let src = expects.(it.Gen.id).src in
        Hashtbl.replace tbl src (l :: Option.value ~default:[] (Hashtbl.find_opt tbl src)))
    items;
  tbl

(* ------------------------------------------------- in-process replay *)

(* The server's request path, one public call at a time, in the server's
   order: validation, fingerprint, corpus exact, corpus nearest
   neighbour (+ plan audit), LRU, singleflight + solve + LRU insert. *)
type replica = {
  target : Lint_request.target;
  pipelines : (string, Opprox.trained * string) Hashtbl.t;
  corpus : Corpus.t;
  cache : Protocol.response Plancache.t;
  flight : Protocol.response Singleflight.t;
}

let replica (s : served) =
  let pipelines = Hashtbl.create 8 in
  List.iter
    (fun (name, tr) -> Hashtbl.replace pipelines name (tr, Opprox_corpus.Precompute.models_hash tr))
    s.loaded;
  let target =
    {
      Lint_request.known_apps = List.sort compare (List.map fst s.loaded);
      param_arity =
        (fun app ->
          Option.map
            (fun ((tr : Opprox.trained), _) -> Array.length tr.Opprox.app.App.param_names)
            (Hashtbl.find_opt pipelines app));
      expected_hash = (fun app -> Option.map snd (Hashtbl.find_opt pipelines app));
    }
  in
  let d = Server.default_config in
  {
    target;
    pipelines;
    corpus = Corpus.load s.corpus_path;
    cache = Plancache.create ~shards:d.Server.cache_shards ~capacity:d.Server.cache_capacity ();
    flight = Singleflight.create ();
  }

let decomposed sp rep ~req:(rid : int) (r : Protocol.request) =
  let span name f = Spans.span sp name ~req:rid f in
  span "server.handle.decomposed" (fun () ->
      let view =
        {
          Lint_request.app = r.Protocol.app;
          budget = r.Protocol.budget;
          input = r.Protocol.input;
          models_hash = r.Protocol.models_hash;
          deadline_ms = r.Protocol.deadline_ms;
        }
      in
      let diags = span "lint_request.check" (fun () -> Lint_request.check rep.target view) in
      if Diagnostic.errors diags <> [] then Protocol.Error diags
      else
        let tr, hash = Hashtbl.find rep.pipelines r.Protocol.app in
        let input = Option.value r.Protocol.input ~default:tr.Opprox.app.App.default_input in
        let budget = r.Protocol.budget in
        let group, key =
          span "key.fingerprint" (fun () ->
              let group = Key.group ~app:r.Protocol.app ~input ~models_hash:hash in
              (group, Key.of_group ~group ~budget))
        in
        let plan_reply plan cache =
          Protocol.Plan { plan; cache; models_hash = hash; elapsed_ms = 0.0 }
        in
        match span "corpus.find" (fun () -> Corpus.find rep.corpus key) with
        | Some plan -> plan_reply plan Protocol.Corpus
        | None -> (
            let nn =
              match span "corpus.find_nn" (fun () -> Corpus.find_nn rep.corpus ~group ~budget) with
              | Some (_, plan) ->
                  let ds =
                    span "optimizer.lint" (fun () -> Optimizer.lint ~models:tr.Opprox.models plan)
                  in
                  if Diagnostic.errors ds = [] then Some plan else None
              | None -> None
            in
            match nn with
            | Some plan -> plan_reply plan Protocol.Nearest
            | None -> (
                match span "plancache.find" (fun () -> Plancache.find rep.cache key) with
                | Some (Protocol.Plan p) -> Protocol.Plan { p with cache = Protocol.Hit }
                | Some _ | None -> (
                    let solve () =
                      let plan =
                        span "server.solve" (fun () -> Opprox.optimize ~input tr ~budget)
                      in
                      let reply = plan_reply plan Protocol.Miss in
                      span "plancache.add" (fun () -> Plancache.add rep.cache key reply);
                      reply
                    in
                    match span "singleflight.run" (fun () -> Singleflight.run rep.flight key solve) with
                    | Singleflight.Led r | Singleflight.Joined r -> r))))

let stages =
  [
    "lint_request.check";
    "key.fingerprint";
    "corpus.find";
    "corpus.find_nn";
    "optimizer.lint";
    "plancache.find";
    "singleflight.run";
    "server.solve";
    "plancache.add";
  ]

let counter name = match Metrics.find name with Some (Metrics.Counter n) -> float_of_int n | _ -> 0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

(* Replay [payloads] (after [warm]) in-process and report the per-layer
   metrics of the request path.  Three passes over fresh state: the
   decomposed path with spans, the same without spans (tracing
   overhead), and the opaque [Server.handle] (handle time per source). *)
let replay_requests ~s ~workload ~warm ~(payloads : string array) ~socket_p50_ms =
  let n = Array.length payloads in
  let decode p = Protocol.request_of_sexp (Sexp.of_string p) in
  (* Each pass: the decomposed path (spans on or off) and then the opaque
     [Server.handle] on an in-process server fed the same requests, in
     the same loop, so both see the same cache state. *)
  let pass ~traced =
    let sp = Spans.create () in
    sp.Spans.on <- traced;
    let rep = replica s in
    let srv =
      Server.create
        ~config:{ Server.default_config with Server.corpus_path = Some s.corpus_path }
        (List.map snd s.loaded)
    in
    Array.iter
      (fun p ->
        ignore (decomposed (Spans.create ()) rep ~req:(-1) (decode p));
        ignore (Server.handle srv (decode p)))
      warm;
    let bytes = ref 0 in
    let handle = Array.make n 0.0 in
    let per_src = Hashtbl.create 4 in
    let solves0 = counter "optimizer.solves" and sweeps0 = counter "optimizer.sweeps" in
    let ph0 = counter "optimizer.predict.hit" and pm0 = counter "optimizer.predict.miss" in
    let t0 = now_us () in
    Array.iteri
      (fun rid p ->
        let req = Spans.span sp "protocol.req_codec" ~req:rid (fun () -> decode p) in
        let run_decomposed () =
          let resp = decomposed sp rep ~req:rid req in
          Spans.span sp "protocol.resp_codec" ~req:rid (fun () ->
              let wire = Sexp.to_string (Protocol.response_to_sexp resp) in
              bytes := !bytes + String.length wire;
              ignore (Protocol.response_of_sexp (Sexp.of_string wire)))
        in
        let run_handle () =
          let t = now_us () in
          let r = Server.handle srv req in
          handle.(rid) <- now_us () -. t;
          r
        in
        (* alternate which path runs first, so neither always finds the
           memory caches the other has just warmed *)
        let r =
          if rid land 1 = 0 then begin
            run_decomposed ();
            run_handle ()
          end
          else begin
            let r = run_handle () in
            run_decomposed ();
            r
          end
        in
        match r with
        | Protocol.Plan { cache; _ } ->
            let src = Protocol.cache_source_string cache in
            Hashtbl.replace per_src src (handle.(rid) :: Option.value ~default:[] (Hashtbl.find_opt per_src src))
        | _ -> fail "%s replay: request %d not answered with a plan" workload rid)
      payloads;
    let dt = now_us () -. t0 in
    let solves = counter "optimizer.solves" -. solves0 in
    ( sp,
      dt,
      handle,
      per_src,
      float_of_int !bytes /. float_of_int (max 1 n),
      ratio (counter "optimizer.sweeps" -. sweeps0) solves,
      ratio
        (counter "optimizer.predict.hit" -. ph0)
        (counter "optimizer.predict.hit" -. ph0 +. counter "optimizer.predict.miss" -. pm0) )
  in
  let sp, traced_us, handle, per_src, resp_bytes, sweeps_per_solve, predict_hit = pass ~traced:true in
  let _, plain_us, _, _, _, _, _ = pass ~traced:false in
  Spans.export sp (Printf.sprintf "perfbench/_work/spans-%s.json" workload);
  let tbl = Spans.summary sp in
  let nf = float_of_int (max 1 n) in
  let empty = Spans.empty_cost_us () in
  say "span calibration: an empty span records %.3f us; subtracted per call" empty;
  let mean_self name =
    Float.max 0.0 (Spans.self_us tbl name -. (empty *. float_of_int (Spans.calls tbl name))) /. nf
  in
  let handle_mean = Array.fold_left ( +. ) 0.0 handle /. nf in
  let stage_sum = List.fold_left (fun acc st -> acc +. mean_self st) 0.0 stages in
  let root_total = Spans.total_us tbl "server.handle.decomposed" /. nf in
  let unattributed = handle_mean -. stage_sum in
  say "replay: %d request(s); stages %.2f us + unattributed %.2f us = handle %.2f us (decomposed, spans included: %.2f us)"
    n stage_sum unattributed handle_mean root_total;
  (* The stages are the server's request path without its bookkeeping
     (admission, counters, its own tracing), so together they may not
     cost more than the whole [Server.handle], and they must cover most
     of it.  Outside these limits the replica no longer does what the
     server does, or the span calibration is off.  The check compares
     medians over requests: a burst of host steal inflates the few
     requests it lands on, in one path or the other, and would move a
     mean. *)
  let self_r, calls_r = Spans.self_by_req sp ~n stages in
  let gap = Array.init n (fun i -> handle.(i) -. (self_r.(i) -. (empty *. float_of_int calls_r.(i)))) in
  let rel = median gap /. median handle in
  say "replay: per request, median handle %.2f us, median unattributed %.2f us (%.1f%%)" (median handle)
    (median gap) (100.0 *. rel);
  if not (rel >= -0.10 && rel <= 0.50) then
    fail "%s replay: median unattributed time is %.1f%% of the median handle, outside -10%% to +50%%" workload
      (100.0 *. rel);
  List.iter (fun st -> say "  %-22s self %9.3f us/request  calls %d" st (mean_self st) (Spans.calls tbl st)) stages;
  let per_call name =
    let c = Spans.calls tbl name in
    if c = 0 then nan else Spans.self_us tbl name /. float_of_int c
  in
  let handle_p50 = median handle in
  let src_p50 src =
    match Hashtbl.find_opt per_src src with Some l -> median (Array.of_list l) | None -> nan
  in
  let zero_nan x = if Float.is_finite x then x else 0.0 in
  metric "protocol.req_codec_us" "us" (mean_self "protocol.req_codec");
  metric "protocol.resp_codec_us" "us" (mean_self "protocol.resp_codec");
  metric "protocol.resp_bytes" "bytes" resp_bytes;
  metric "lint_request.check_us" "us" (mean_self "lint_request.check");
  metric "key.fingerprint_us" "us" (mean_self "key.fingerprint");
  metric "corpus.find_us" "us" (mean_self "corpus.find");
  metric "corpus.find_nn_us" "us" (mean_self "corpus.find_nn");
  metric "optimizer.lint_us" "us" (mean_self "optimizer.lint");
  metric "plancache.find_us" "us" (mean_self "plancache.find");
  metric "plancache.add_us" "us" (mean_self "plancache.add");
  metric "singleflight.run_us" "us" (mean_self "singleflight.run");
  metric "server.solve_us" "us" (mean_self "server.solve");
  metric "server.handle_us" "us" handle_mean;
  metric "server.unattributed_us" "us" unattributed;
  metric "transport.overhead_us" "us" ((socket_p50_ms *. 1000.0) -. handle_p50);
  metric "trace.overhead_us" "us" ((traced_us -. plain_us) /. nf);
  metric "optimizer.sweeps_per_solve" "count" sweeps_per_solve;
  metric "optimizer.predict_hit_ratio" "ratio" predict_hit;
  say "tracing overhead: traced %.1f ms vs untraced %.1f ms over %d request(s)" (traced_us /. 1000.0)
    (plain_us /. 1000.0) n;
  (* per-call figures for the cross-check *)
  let codec = per_call "protocol.req_codec" +. per_call "protocol.resp_codec" in
  [
    ("serve:fingerprint", zero_nan (per_call "key.fingerprint"), "Key.group+of_group per call");
    ("corpus:raw-find", zero_nan (per_call "corpus.find"), "Corpus.find per call");
    ("corpus:raw-find-nn", zero_nan (per_call "corpus.find_nn"), "Corpus.find_nn per call");
    ("corpus:exact-hit", zero_nan (src_p50 "corpus"), "Server.handle p50, corpus replies");
    ("corpus:nn-hit", zero_nan (src_p50 "nn"), "Server.handle p50, nn replies");
    ("corpus:lru-hit", zero_nan (src_p50 "cache"), "Server.handle p50, cache replies");
    ("serve:cache-hit", zero_nan (src_p50 "cache" +. codec), "handle p50 + both codecs, cache replies");
  ]

(* ----------------------------------------------------- shared metrics *)

(* Every per-layer name, so a workload that does not exercise a layer
   reports it as 0 rather than omitting it. *)
let per_layer_names =
  [
    ("protocol.req_codec_us", "us"); ("protocol.resp_codec_us", "us"); ("protocol.resp_bytes", "bytes");
    ("protocol.telemetry_codec_us", "us"); ("server.telemetry_us", "us");
    ("lint_request.check_us", "us"); ("key.fingerprint_us", "us"); ("corpus.find_us", "us");
    ("corpus.find_nn_us", "us"); ("optimizer.lint_us", "us"); ("plancache.find_us", "us");
    ("plancache.add_us", "us"); ("singleflight.run_us", "us"); ("server.solve_us", "us");
    ("server.handle_us", "us"); ("server.unattributed_us", "us"); ("transport.overhead_us", "us");
    ("trace.overhead_us", "us"); ("conn.first_reply_ms", "ms"); ("lat_p50_ms", "ms"); ("lat_p99_ms", "ms");
    ("max_rate_rps", "req/s");
    ("src.corpus.n", "count"); ("src.nn.n", "count"); ("src.cache.n", "count"); ("src.solved.n", "count");
    ("src.corpus.p50_ms", "ms"); ("src.corpus.p99_ms", "ms"); ("src.nn.p50_ms", "ms"); ("src.nn.p99_ms", "ms");
    ("src.cache.p50_ms", "ms"); ("src.cache.p99_ms", "ms"); ("src.solved.p50_ms", "ms");
    ("src.solved.p99_ms", "ms"); ("gen.late_p99_ms", "ms");
    ("corpus.hit_ratio", "ratio"); ("corpus.nn_ratio", "ratio"); ("plancache.hit_ratio", "ratio");
    ("plancache.evictions", "count"); ("singleflight.coalesced_ratio", "ratio");
    ("optimizer.solve_ms", "ms"); ("optimizer.sweeps_per_solve", "count");
    ("optimizer.predict_hit_ratio", "ratio"); ("models.predictor_compile_us", "us");
    ("models.predict_ns", "ns"); ("search.solve_ms", "ms"); ("search.accept_ratio", "ratio");
    ("optimizer.suffix_solve_ms", "ms");
    ("phases.probe_s", "s"); ("training.collect_s", "s"); ("training.runs", "count");
    ("models.build_s", "s"); ("driver.exact_runs", "count"); ("driver.ckpt_hit_ratio", "ratio");
    ("driver.eval_hit_ratio", "ratio"); ("driver.apply_ms", "ms"); ("pool.busy_frac", "ratio");
    ("pool.steal_ratio", "ratio"); ("precompute.sweep_ms", "ms"); ("precompute.cells", "count");
    ("quality.violation_frac", "ratio");
  ]

(* Socket-side per-layer metrics of one phase. *)
let socket_layers ~(items : Gen.item array) ~res ~expects ~counts =
  let srcs = by_source items res expects in
  List.iter
    (fun src ->
      let l = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt srcs src)) in
      let s = sorted l in
      metric (Printf.sprintf "src.%s.n" src) "count" (float_of_int (counts src));
      metric (Printf.sprintf "src.%s.p50_ms" src) "ms" (if l = [||] then 0.0 else pct s 50.0);
      metric (Printf.sprintf "src.%s.p99_ms" src) "ms"
        (if l = [||] then 0.0 else pct s (tail_q (Array.length s))))
    [ "corpus"; "nn"; "cache"; "solved" ];
  metric "gen.late_p99_ms" "ms" (let s = sorted (late_ms items res) in pct s (tail_q (Array.length s)))

let daemon_layers c =
  let req = Daemon.counter c "server.requests" in
  metric "corpus.hit_ratio" "ratio" (ratio (Daemon.counter c "corpus.hits") req);
  metric "corpus.nn_ratio" "ratio" (ratio (Daemon.counter c "corpus.nn_hits") req);
  let h = Daemon.counter c "plancache.hit" and m = Daemon.counter c "plancache.miss" in
  metric "plancache.hit_ratio" "ratio" (ratio h (h +. m));
  metric "plancache.evictions" "count" (Daemon.counter c "plancache.eviction");
  let co = Daemon.counter c "server.singleflight.coalesced" in
  metric "singleflight.coalesced_ratio" "ratio" (ratio co (co +. Daemon.counter c "server.singleflight.leaders"))

(* Offline-layer metrics from the traced offline pass. *)
let offline_layers sp ~wall_s ~counters0 =
  let tbl = Spans.summary sp in
  let d name = counter name -. List.assoc name counters0 in
  metric "phases.probe_s" "s" (Spans.total_us tbl "phases.probe" /. 1e6);
  metric "training.collect_s" "s" (Spans.total_us tbl "training.collect" /. 1e6);
  metric "training.runs" "count" (d "training.runs");
  metric "models.build_s" "s" (Spans.total_us tbl "models.build" /. 1e6);
  metric "driver.exact_runs" "count" (d "driver.exact.run");
  metric "driver.ckpt_hit_ratio" "ratio" (ratio (d "driver.ckpt.hit") (d "driver.ckpt.hit" +. d "driver.ckpt.miss"));
  metric "driver.eval_hit_ratio" "ratio" (ratio (d "driver.eval.hit") (d "driver.eval.hit" +. d "driver.eval.miss"));
  metric "pool.busy_frac" "ratio"
    (d "pool.busy_us" /. (wall_s *. 1e6 *. float_of_int (Pool.jobs (Pool.default ()))));
  metric "pool.steal_ratio" "ratio" (ratio (d "pool.steal.success") (d "pool.steal.attempts"));
  metric "precompute.sweep_ms" "ms" (Spans.total_us tbl "precompute.sweep" /. 1000.0);
  metric "precompute.cells" "count" (d "corpus.precompute.cells")

let offline_counter_names =
  [
    "training.runs"; "driver.exact.run"; "driver.ckpt.hit"; "driver.ckpt.miss"; "driver.eval.hit";
    "driver.eval.miss"; "pool.busy_us"; "pool.steal.success"; "pool.steal.attempts";
    "corpus.precompute.cells";
  ]

let snapshot names = List.map (fun n -> (n, counter n)) names

(* Per-layer solver figures over a few enumeration keys. *)
let solver_layers (s : served) (keys : key list) =
  let enum = List.filter (fun k -> k.kapp <> Offline.transformer.name) keys in
  let enum = List.filteri (fun i _ -> i < 20) enum in
  let solve_ms = ref [] and compile_us = ref [] and predict_ns = ref [] in
  List.iter
    (fun k ->
      let tr = trained_of s k.kapp in
      let t = now_us () in
      ignore (Opprox.optimize ~input:k.kinput tr ~budget:k.kbudget);
      solve_ms := ((now_us () -. t) /. 1000.0) :: !solve_ms;
      let t = now_us () in
      let predict = Opprox.Models.predictor tr.Opprox.models ~input:k.kinput in
      compile_us := (now_us () -. t) :: !compile_us;
      let configs = Array.of_list (Opprox_sim.Config_space.all tr.Opprox.app.App.abs) in
      let phases = Opprox.Models.n_phases tr.Opprox.models in
      let t = now_us () in
      Array.iter (fun levels -> for phase = 0 to phases - 1 do ignore (predict ~phase ~levels) done) configs;
      predict_ns :=
        ((now_us () -. t) *. 1000.0 /. float_of_int (Array.length configs * phases)) :: !predict_ns)
    enum;
  let med l = if l = [] then 0.0 else median (Array.of_list l) in
  metric "optimizer.solve_ms" "ms" (med !solve_ms);
  metric "models.predictor_compile_us" "us" (med !compile_us);
  metric "models.predict_ns" "ns" (med !predict_ns);
  med !solve_ms

let fill_missing () =
  List.iter
    (fun (name, unit) -> if not (List.exists (fun (n, _, _) -> n = name) !metrics) then metric name unit 0.0)
    per_layer_names;
  (* keep only per-layer names, in the declared order *)
  metrics :=
    List.rev_map
      (fun (name, unit) ->
        let _, v, _ = List.find (fun (n, _, _) -> n = name) !metrics in
        (name, v, unit))
      per_layer_names

(* --------------------------------------------------------- workloads *)

type ctx = { workload : string; seed : int; seconds : int; trace : bool; exe : string; self : string }

(* The latencies and the rate ladder's knee are reported on every run
   but bounded nowhere: on a shared 2-vCPU host their run-to-run spread
   under hypervisor steal reaches or passes the largest bound a benchmark
   may set (see README.md).  They ride with the per-layer metrics of the
   traced run; the bounded figure for the serving path is the daemon's
   CPU time per request. *)
let end_to_end ~trace ~setup ~p50 ~p99 ~rate ~cpu ~rss ~offline ~speedup =
  say "end-to-end: setup_s %.4f s, lat_p50_ms %.4f ms, lat_p99_ms %.4f ms, max_rate_rps %.1f req/s, cpu_ms_per_kreq %.2f ms, peak_rss_mb %.2f MB, offline_s %.3f s, plan_speedup_gmean %.4f x"
    setup p50 p99 rate cpu rss offline speedup;
  if trace then begin
    metric "lat_p50_ms" "ms" p50;
    metric "lat_p99_ms" "ms" p99;
    metric "max_rate_rps" "req/s" rate
  end
  else begin
    metric "setup_s" "s" setup;
    metric "cpu_ms_per_kreq" "ms" cpu;
    metric "peak_rss_mb" "MB" rss;
    metric "offline_s" "s" offline;
    metric "plan_speedup_gmean" "x" speedup
  end

(* The daemon's CPU time (all its threads) over the nominal window, per
   1000 requests of that window.  Unlike latency, it leaves out the time
   a request waits for a CPU the host has taken away. *)
let daemon_cpu d f =
  let c0 = Daemon.cpu_s d.Daemon.pid in
  let v = f () in
  (v, Daemon.cpu_s d.Daemon.pid -. c0)

let per_kreq_ms ?(what = "nominal") cpu_s n =
  let v = cpu_s *. 1e6 /. float_of_int (max 1 n) in
  say "  daemon CPU %.3f s over %d %s request(s): %.2f ms per 1000" cpu_s n what v;
  v

(* The nominal window is cut into equal slices by due time: up to 15
   slices of at least 200 samples for the p50, up to 9 of at least 400
   for the tail.  The reported p50 and tail are the medians of the
   per-slice figures, so a burst of host steal moves a few slices, not
   the result.  The whole-window figures are printed too. *)
let nominal_latency ~name (items : Gen.item array) res =
  let lat = latencies_ms items res in
  describe (name ^ " latency from due time") "ms" lat;
  describe (name ^ " generator lateness") "ms" (late_ms items res);
  let last = Array.fold_left (fun m (it : Gen.item) -> Float.max m it.Gen.due_us) 1.0 items in
  let slices ~min_n ~most =
    let windows = max 1 (min most (Array.length lat / min_n)) in
    Array.init windows (fun k ->
        sorted
          (Array.of_list
             (List.filteri
                (fun i _ ->
                  let f = items.(i).Gen.due_us /. last in
                  min (windows - 1) (int_of_float (f *. float_of_int windows)) = k)
                (Array.to_list lat))))
  in
  let p50s = Array.map (fun s -> pct s 50.0) (slices ~min_n:200 ~most:15) in
  let tails = Array.map (fun s -> pct s (tail_q (Array.length s))) (slices ~min_n:400 ~most:9) in
  say "  %s per-slice p50 %s ms; tails %s ms" name
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") p50s)))
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") tails)));
  (median p50s, median tails)

(* Apply a seeded sample of distinct served plans to their inputs.  The
   sample has its own generator, so it does not depend on how many rungs
   the ladder ran. *)
let served_quality ~seed (s : served) (keys : key list) =
  let rng = Rng.create (seed * 7919 + 11) in
  let seen = Hashtbl.create 64 in
  let distinct =
    List.filter
      (fun k ->
        let id = (k.kapp, k.kinput, Lazy.force k.kexpect.reference) in
        if k.kapp = Offline.transformer.name || Hashtbl.mem seen id then false
        else (Hashtbl.replace seen id (); true))
      keys
    |> Array.of_list
  in
  Rng.shuffle rng distinct;
  let pick = Array.sub distinct 0 (min 200 (Array.length distinct)) in
  let q =
    Offline.apply_all
      (Array.map
         (fun k ->
           (trained_of s k.kapp, k.kinput, Optimizer.plan_of_sexp (Sexp.of_string (Lazy.force k.kexpect.reference))))
         pick)
  in
  say "plan quality: %d distinct served plan(s) applied: speedup gmean %.4f, %d over budget (%.3f)"
    q.Offline.cells (Offline.gmean q) q.Offline.violations (Offline.violation_frac q);
  q

(* Keys for lookups: every corpus cell, Zipf-ranked in a seeded order. *)
type lookup_keys = { draw : unit -> key; below : key array }

let lookup_keys rng (s : served) =
  let cells = Array.of_list s.entries in
  Rng.shuffle rng cells;
  let pick = zipf rng ~s:Opprox_serve.Loadgen.default_config.zipf (Array.length cells) in
  let grid = Offline.budget_grid in
  let expect_of app src reference =
    { src; reference; models = (trained_of s app).Opprox.models; app }
  in
  let below =
    Array.init 40 (fun _ ->
        let (c : Corpus.entry) = cells.(Rng.int rng (Array.length cells)) in
        let budget = Rng.range rng 0.5 (grid.(0) -. 0.1) in
        let tr = trained_of s c.app in
        let input = c.input in
        {
          kapp = c.app;
          kinput = input;
          kbudget = budget;
          kexpect = expect_of c.app "cache" (lazy (plan_string (Opprox.optimize ~input tr ~budget)));
        })
  in
  let draw () =
    let u = Rng.uniform rng in
    if u < 0.10 then below.(Rng.int rng (Array.length below))
    else
      let (c : Corpus.entry) = cells.(pick ()) in
      let reference = lazy (plan_string c.plan) in
      if u < 0.30 then begin
        (* off the grid, below the next cell: the nearest-neighbour arm *)
        let i = ref 0 in
        Array.iteri (fun j b -> if b = c.budget then i := j) grid;
        let hi = if !i + 1 < Array.length grid then grid.(!i + 1) else Float.min 100.0 (c.budget *. 1.5) in
        let budget = c.budget +. (Rng.range rng 0.05 0.95 *. (hi -. c.budget)) in
        { kapp = c.app; kinput = c.input; kbudget = budget; kexpect = expect_of c.app "nn" reference }
      end
      else { kapp = c.app; kinput = c.input; kbudget = c.budget; kexpect = expect_of c.app "corpus" reference }
  in
  { draw; below }

(* Split [seconds] into the nominal window and the ladder. *)
let split_window ctx = (Float.max 1.0 (0.75 *. float_of_int ctx.seconds), Float.max 1.0 (0.25 *. float_of_int ctx.seconds))

let serve_lookup ctx =
  let rng = Rng.create (ctx.seed * 7919 + 1) in
  let dir = run_dir ctx.workload ctx.seed in
  let sp = Spans.create () in
  let c0 = snapshot offline_counter_names in
  let s = prepare_served ~sp ~traced:ctx.trace ~dir Offline.enumeration in
  if ctx.trace then offline_layers sp ~wall_s:s.offline_s ~counters0:c0;
  let ks = lookup_keys rng s in
  (* the set-up request must not touch a below-grid key before warm-up *)
  let rec first_key () = let k = ks.draw () in if k.kexpect.src = "corpus" then k else first_key () in
  let first = first_key () in
  let d, setup = start_daemon ~exe:ctx.exe s ~first_payload:(encode_request (Protocol.request ~input:first.kinput ~app:first.kapp ~budget:first.kbudget ())) in
  Fun.protect ~finally:(fun () -> if Daemon.alive d then ignore (Daemon.stop d)) @@ fun () ->
  (* warm-up: every below-grid key solved once, then served from the LRU *)
  let warm = ks.below in
  let warm_items = make_items warm (Array.mapi (fun i _ -> float_of_int i *. 2000.0) warm) in
  let wres = Gen.run_closed ~socket:s.socket warm_items in
  let wc, _, _ = verify ~phase:"warm-up" ~strict:true warm_items wres (Array.map (fun k -> { k.kexpect with src = "solved" }) warm) in
  if wc "solved" <> Array.length warm then fail "warm-up: %d of %d below-grid keys solved" (wc "solved") (Array.length warm);
  (* nominal rate *)
  let nominal_s, ladder_s = split_window ctx in
  let rate = 400.0 in
  let dues = Gen.poisson rng ~rate ~dur_s:nominal_s ~start_us:0.0 in
  let keys = Array.map (fun _ -> ks.draw ()) dues in
  let items = make_items keys dues in
  let expects = Array.map (fun k -> k.kexpect) keys in
  let res, cpu = daemon_cpu d (fun () -> Gen.run_submitter ~socket:s.socket ~grace_s:30.0 items) in
  let cpu = per_kreq_ms cpu (Array.length items) in
  let p50, p99 = nominal_latency ~name:"nominal" items res in
  let counts, wrong, _ = verify ~phase:"nominal" ~strict:true items res expects in
  say "sources: corpus %d, nn %d, cache %d, solved %d (built for: corpus %d, nn %d, cache %d, solved 0)"
    (counts "corpus") (counts "nn") (counts "cache") (counts "solved")
    (Array.fold_left (fun n e -> if e.src = "corpus" then n + 1 else n) 0 expects)
    (Array.fold_left (fun n e -> if e.src = "nn" then n + 1 else n) 0 expects)
    (Array.fold_left (fun n e -> if e.src = "cache" then n + 1 else n) 0 expects);
  if wrong > 0 then fail "tier coverage: %d reply source(s) differ from the ones the keys were built for" wrong;
  if counts "solved" > 0 then fail "tier coverage: %d solve(s) in the timed window" (counts "solved");
  (* rate ladder *)
  let max_rate =
    ladder ~name:"serve-lookup" ~rates:(geometric 1000.0 1.25 12)
      ~limit_ms:2.0 ~total_s:ladder_s (fun r rung_s ->
        let dues = Gen.poisson rng ~rate:r ~dur_s:rung_s ~start_us:0.0 in
        let keys = Array.map (fun _ -> ks.draw ()) dues in
        let items = make_items keys dues in
        let res = Gen.run_submitter ~socket:s.socket ~grace_s:10.0 items in
        let _, _, misses = verify ~phase:"ladder" ~strict:false items res (Array.map (fun k -> k.kexpect) keys) in
        (latencies_ms items res, misses))
  in
  let rss = float_of_int (Daemon.vm_hwm_kb d.Daemon.pid) /. 1024.0 in
  let c = Daemon.stop d in
  let solves = Daemon.counter c "server.solve_us.count" in
  if solves <> float_of_int (Array.length warm) then
    fail "tier coverage: daemon solved %.0f time(s), expected only the %d warm-up key(s)" solves (Array.length warm);
  let q = served_quality ~seed:ctx.seed s (Array.to_list keys) in
  say "fail_frac %.4f; violation_frac %.4f" (ratio (float_of_int !failed) (float_of_int !attempted)) (Offline.violation_frac q);
  if ctx.trace then begin
    socket_layers ~items ~res ~expects ~counts;
    daemon_layers c;
    let socket_p50 = pct (sorted (latencies_ms items res)) 50.0 in
    let pairs =
      replay_requests ~s ~workload:ctx.workload
        ~warm:(Array.map (fun (it : Gen.item) -> it.payload) warm_items)
        ~payloads:(Array.map (fun (it : Gen.item) -> it.payload) items)
        ~socket_p50_ms:socket_p50
    in
    ignore (solver_layers s (Array.to_list warm));
    metric "quality.violation_frac" "ratio" (Offline.violation_frac q);
    cross_check pairs
  end;
  end_to_end ~trace:ctx.trace ~setup ~p50 ~p99 ~rate:max_rate ~cpu ~rss ~offline:s.offline_s ~speedup:(Offline.gmean q);
  rm_rf dir

(* Every key new: perturbations of each enumeration app's default input
   and budgets from a continuous range, spread evenly per app
   ([budgets_and_inputs]); a small share to the
   transformer (stochastic search). *)
let solve_key rng ~deck ~points ~tf (s : served) =
  let app, input, budget =
    if tf then
      (Offline.transformer.name, Offline.perturb rng ~lo:0.85 ~hi:1.2 Offline.transformer_input, Rng.range rng 5.0 25.0)
    else
      let app = deck () in
      let tr = trained_of s app in
      let p = points app in
      let input = Array.mapi (fun j x -> x *. Offline.scale ~lo:0.85 ~hi:1.2 p.(j + 1)) tr.Opprox.app.App.default_input in
      (app, input, Offline.scale ~lo:3.0 ~hi:25.0 p.(0))
  in
  let tr = trained_of s app in
  {
    kapp = app;
    kinput = input;
    kbudget = budget;
    kexpect =
      {
        src = "solved";
        reference = lazy (plan_string (Opprox.optimize ~input tr ~budget));
        models = tr.Opprox.models;
        app;
      };
  }

(* Per app, evenly spread points: the budget, then one factor per input
   component. *)
let budgets_and_inputs rng (s : served) =
  let seqs = Hashtbl.create 8 in
  fun app ->
    match Hashtbl.find_opt seqs app with
    | Some next -> next ()
    | None ->
        let d = 1 + Array.length (trained_of s app).Opprox.app.App.default_input in
        let next = Offline.spread rng d in
        Hashtbl.replace seqs app next;
        next ()

(* Poisson arrivals of new keys.  One key in [tf_every] goes to the
   transformer (none when [tf_every] = 0), and one in ten is repeated
   1-20 ms later (an LRU insert followed by a hit, or a concurrent
   duplicate); the seed picks which.  Exact shares keep the mix of solve
   work the same from seed to seed. *)
let solve_schedule rng ~deck ~points s ~tf_every ~rate ~dur_s =
  let dues = Gen.poisson rng ~rate ~dur_s ~start_us:0.0 in
  let tf_at = if tf_every > 0 then Rng.int rng tf_every else -1 and rep_at = Rng.int rng 10 in
  let fresh = Array.mapi (fun i _ -> solve_key rng ~deck ~points ~tf:(tf_every > 0 && i mod tf_every = tf_at) s) dues in
  let all = ref [] in
  Array.iteri
    (fun i due ->
      all := (due, fresh.(i)) :: !all;
      if i mod 10 = rep_at then
        all := (due +. Rng.range rng 1000.0 20000.0, { (fresh.(i)) with kexpect = { (fresh.(i).kexpect) with src = "cache" } }) :: !all)
    dues;
  let all = Array.of_list (List.sort (fun (a, _) (b, _) -> Float.compare a b) !all) in
  let keys = Array.map snd all in
  (fresh, keys, make_items keys (Array.map fst all))

(* Force every reference once, on the pool. *)
let force_references (fresh : key array) =
  Pool.parallel_iter (fun k -> ignore (Lazy.force k.kexpect.reference)) fresh

let serve_solve ctx =
  let rng = Rng.create (ctx.seed * 7919 + 2) in
  let dir = run_dir ctx.workload ctx.seed in
  let sp = Spans.create () in
  let c0 = snapshot offline_counter_names in
  let s = prepare_served ~sp ~traced:ctx.trace ~dir (Offline.enumeration @ [ Offline.transformer ]) in
  if ctx.trace then offline_layers sp ~wall_s:s.offline_s ~counters0:c0;
  let deck = Offline.app_deck rng and points = budgets_and_inputs rng s in
  (* the set-up request is a corpus cell, so set-up time holds no solve *)
  let (first : Corpus.entry) = List.nth s.entries (Rng.int rng (List.length s.entries)) in
  let d, setup =
    start_daemon ~exe:ctx.exe s
      ~first_payload:(encode_request (Protocol.request ~input:first.input ~app:first.app ~budget:first.budget ()))
  in
  Fun.protect ~finally:(fun () -> if Daemon.alive d then ignore (Daemon.stop d)) @@ fun () ->
  (* warm-up: more distinct keys than the plan-cache capacity, so the
     timed window runs against a full LRU that evicts *)
  let warm = Array.init 560 (fun _ -> solve_key rng ~deck ~points ~tf:false s) in
  let warm_items = make_items warm (Array.mapi (fun i _ -> float_of_int i *. 4000.0) warm) in
  let nominal_s, ladder_s = split_window ctx in
  let fresh, keys, items = solve_schedule rng ~deck ~points s ~tf_every:50 ~rate:25.0 ~dur_s:nominal_s in
  (* CPU over the warm-up and the nominal window: both are new keys, and
     a few hundred solves of a skewed cost are too few for a steady mean *)
  let (wres, res), cpu =
    daemon_cpu d (fun () ->
        let wres = Gen.run_closed ~socket:s.socket warm_items in
        (wres, Gen.run_submitter ~socket:s.socket ~grace_s:30.0 items))
  in
  let cpu = per_kreq_ms ~what:"warm-up and nominal" cpu (Array.length warm_items + Array.length items) in
  let p50, p99 = nominal_latency ~name:"nominal" items res in
  let rung_runs = ref [] in
  let max_rate =
    ladder ~name:"serve-solve" ~rates:(geometric 80.0 1.25 8) ~limit_ms:25.0
      ~total_s:ladder_s (fun r rung_s ->
        let fresh, keys, items = solve_schedule rng ~deck ~points s ~tf_every:0 ~rate:r ~dur_s:rung_s in
        let res = Gen.run_submitter ~socket:s.socket ~grace_s:10.0 items in
        rung_runs := (fresh, keys, items, res) :: !rung_runs;
        (latencies_ms items res, Array.fold_left (fun n (r : Gen.result) -> if r.error <> "" then n + 1 else n) 0 res))
  in
  let rss = float_of_int (Daemon.vm_hwm_kb d.Daemon.pid) /. 1024.0 in
  let c = Daemon.stop d in
  (* references, then checks *)
  force_references (Array.concat (warm :: fresh :: List.map (fun (f, _, _, _) -> f) !rung_runs));
  let wc, _, _ = verify ~phase:"warm-up" ~strict:true warm_items wres (Array.map (fun k -> k.kexpect) warm) in
  if wc "solved" <> Array.length warm then fail "warm-up: %d of %d keys solved" (wc "solved") (Array.length warm);
  let expects = Array.map (fun k -> k.kexpect) keys in
  let counts, _, _ = verify ~phase:"nominal" ~strict:true items res expects in
  let answered = Hashtbl.create 1024 in
  let note keys (res : Gen.result array) items =
    Array.iter
      (fun (it : Gen.item) ->
        let r = res.(it.Gen.id) in
        let shed =
          r.Gen.error = "never sent"
          || (r.Gen.error = ""
             && match Protocol.response_of_sexp (Sexp.of_string r.Gen.reply) with
                | Protocol.Overloaded _ -> true
                | _ -> false
                | exception _ -> false)
        in
        if not shed then Hashtbl.replace answered (Lazy.force keys.(it.Gen.id).kexpect.reference, keys.(it.Gen.id).kinput, keys.(it.Gen.id).kbudget) ())
      items
  in
  note keys res items;
  note warm wres warm_items;
  List.iter
    (fun (_, k, its, r) ->
      ignore (verify ~phase:"ladder" ~strict:false its r (Array.map (fun k -> k.kexpect) k));
      note k r its)
    !rung_runs;
  let n_new = Array.length fresh and n_rep = Array.length keys - Array.length fresh in
  let coalesced = Daemon.counter c "server.singleflight.coalesced" in
  let solves = Daemon.counter c "server.solve_us.count" in
  say "sources: solved %d, cache %d (built for: %d new key(s), %d repeat(s)); daemon: %.0f solve(s), %.0f coalesced, %.0f eviction(s)"
    (counts "solved") (counts "cache") n_new n_rep solves coalesced (Daemon.counter c "plancache.eviction");
  if counts "solved" + counts "cache" <> Array.length keys || counts "solved" < n_new then
    fail "tier coverage: nominal sources solved %d + cache %d do not match %d new + %d repeated key(s)"
      (counts "solved") (counts "cache") n_new n_rep;
  (* every distinct key answered cost exactly one solve: repeats were
     absorbed by the LRU or coalesced, never solved again *)
  if solves <> float_of_int (Hashtbl.length answered) then
    fail "tier coverage: daemon solved %.0f time(s) for %d distinct key(s) it received" solves (Hashtbl.length answered);
  if Daemon.counter c "plancache.eviction" <= 0.0 then fail "tier coverage: no plan-cache eviction";
  if n_rep = 0 then fail "tier coverage: no repeated key";
  let q = served_quality ~seed:ctx.seed s (Array.to_list keys) in
  say "fail_frac %.4f; violation_frac %.4f" (ratio (float_of_int !failed) (float_of_int !attempted)) (Offline.violation_frac q);
  if ctx.trace then begin
    socket_layers ~items ~res ~expects ~counts;
    daemon_layers c;
    let n = min 120 (Array.length items) in
    let sub = Array.sub items 0 n in
    let pairs =
      replay_requests ~s ~workload:ctx.workload ~warm:[||]
        ~payloads:(Array.map (fun (it : Gen.item) -> it.payload) sub)
        ~socket_p50_ms:(pct (sorted (latencies_ms items res)) 50.0)
    in
    let solve_ms = solver_layers s (Array.to_list fresh) in
    let tf = List.filter (fun k -> k.kapp = Offline.transformer.name) (Array.to_list fresh) in
    let tf = List.filteri (fun i _ -> i < 4) tf in
    let a0 = counter "search.accepts" and s0 = counter "search.steps" in
    let search_ms =
      List.map
        (fun k ->
          let tr = trained_of s k.kapp in
          let t = now_us () in
          ignore (Search.solve ~models:tr.Opprox.models ~input:k.kinput ~budget:k.kbudget ());
          (now_us () -. t) /. 1000.0)
        tf
    in
    metric "search.solve_ms" "ms" (if search_ms = [] then 0.0 else median (Array.of_list search_ms));
    metric "search.accept_ratio" "ratio" (ratio (counter "search.accepts" -. a0) (counter "search.steps" -. s0));
    metric "quality.violation_frac" "ratio" (Offline.violation_frac q);
    let small =
      match tf with
      | k :: _ ->
          let tr = trained_of s k.kapp in
          let t = now_us () in
          ignore
            (Search.solve ~config:{ Search.default_config with chains = 2; iters = 300 } ~models:tr.Opprox.models
               ~input:k.kinput ~budget:k.kbudget ());
          [ ("search:solve-2x300", now_us () -. t, "Search.solve 2 chains x 300 iters") ]
      | [] -> []
    in
    cross_check (pairs @ small @ [ ("serve:cold-solve", solve_ms *. 1000.0, "Opprox.optimize median, app mix") ])
  end;
  end_to_end ~trace:ctx.trace ~setup ~p50 ~p99 ~rate:max_rate ~cpu ~rss ~offline:s.offline_s ~speedup:(Offline.gmean q);
  rm_rf dir

(* ------------------------------------------------------------ stream *)

type frame = { tm : Protocol.telemetry; replan : string; fmodels : Opprox.Models.t; from_phase : int }

(* Phase-boundary telemetry recorded from controlled runs of plans solved
   for the default input and executed on perturbed inputs; every
   recorded frame is over the drift tolerance.  The runs use a tighter
   tolerance (0.05) than the controller's default, so that many runs
   cross it at a boundary.  The tolerance travels in each frame, and the
   daemon judges the frame by it.  comd and kmeans runs do not cross
   even that tolerance on these inputs, so the frames come from
   bodytrack and lulesh.  Frames are returned per app. *)
let stream_apps = [| "bodytrack"; "lulesh" |]

let record_frames rng (s : served) =
  let cfg = { Opprox.Controller.default_config with drift_tol = 0.05 } in
  let per_app = Array.make (Array.length stream_apps) [] in
  let speedups = ref [] and over = ref 0 and runs = ref 0 in
  while (Array.exists (fun l -> List.length l < 6) per_app || !runs < 16) && !runs < 80 do
    let a = !runs mod Array.length stream_apps in
    let app = stream_apps.(a) in
    incr runs;
    let tr = trained_of s app in
    let input = Offline.perturb rng ~lo:0.6 ~hi:1.6 tr.Opprox.app.App.default_input in
    let budget = Rng.range rng 5.0 20.0 in
    let plan = Opprox.optimize tr ~budget in
    let replan (t : Opprox.Controller.telemetry) =
      let tm =
        Protocol.telemetry ~input ~app ~plan_budget:budget ~phase:t.Opprox.Controller.phase
          ~n_phases:t.Opprox.Controller.n_phases ~drift:t.Opprox.Controller.drift
          ~drift_tol:cfg.Opprox.Controller.drift_tol ~observed_work:t.Opprox.Controller.observed_work
          ~predicted_work:t.Opprox.Controller.predicted_work
          ~remaining_budget:t.Opprox.Controller.remaining_budget ()
      in
      let p =
        Optimizer.solver ~models:tr.Opprox.models ~roi:tr.Opprox.roi ~input ()
          ~first_phase:(t.Opprox.Controller.phase + 1)
          ~budget:(Float.max 0.0 t.Opprox.Controller.remaining_budget)
          ()
      in
      if t.Opprox.Controller.drift > cfg.Opprox.Controller.drift_tol then
        per_app.(a) <-
          { tm; replan = plan_string p; fmodels = tr.Opprox.models; from_phase = t.Opprox.Controller.phase + 1 }
          :: per_app.(a);
      Some p
    in
    let o = Opprox.run_controlled ~config:cfg ~replan ~input tr plan in
    speedups := o.Opprox.Controller.evaluation.Driver.speedup :: !speedups;
    if not o.Opprox.Controller.within_budget then incr over
  done;
  say "recorded over-tolerance frames from %d controlled run(s), %d over budget: %s" !runs !over
    (String.concat ", "
       (Array.to_list (Array.mapi (fun a l -> Printf.sprintf "%s %d" stream_apps.(a) (List.length l)) per_app)));
  ( Array.map (fun l -> Array.of_list (List.rev l)) per_app,
    { Offline.speedups = Array.of_list !speedups; violations = !over; cells = !runs } )

(* [n] due times spread uniformly at random over [dur_s]: a Poisson
   process conditioned on its count. *)
let uniform_dues rng ~n ~dur_s = sorted (Array.init n (fun _ -> Rng.uniform rng *. dur_s *. 1e6))

let check_delta (f : frame) payload =
  match Protocol.response_of_sexp (Sexp.of_string payload) with
  | exception (Failure m | Invalid_argument m) -> Error ("undecodable reply: " ^ m)
  | Protocol.PlanDelta { delta = Protocol.Replan { from_phase; plan }; _ } ->
      if from_phase <> f.from_phase then
        Error (Printf.sprintf "replan from phase %d, expected %d" from_phase f.from_phase)
      else if plan_string plan <> f.replan then Error "replan differs from the in-process suffix solve"
      else if Diagnostic.errors (Optimizer.lint ~models:f.fmodels plan) <> [] then Error "replan fails Optimizer.lint"
      else Ok ()
  | Protocol.PlanDelta { delta = Protocol.No_change; _ } -> Error "no_change for an over-tolerance frame"
  | _ -> Error "not a plan delta"

let serve_stream ctx =
  let rng = Rng.create (ctx.seed * 7919 + 3) in
  let dir = run_dir ctx.workload ctx.seed in
  let sp = Spans.create () in
  let c0 = snapshot offline_counter_names in
  let s = prepare_served ~sp ~traced:ctx.trace ~dir Offline.enumeration in
  if ctx.trace then offline_layers sp ~wall_s:s.offline_s ~counters0:c0;
  let per_app, quality = record_frames rng s in
  let per_app = List.filter (fun f -> Array.length f > 0) (Array.to_list per_app) |> Array.of_list in
  if Array.length per_app = 0 then failwith "no over-tolerance telemetry recorded";
  let ks = lookup_keys rng s in
  (* plan requests on the stream stay off the solver: corpus and nn keys *)
  let rec plan_key () = let k = ks.draw () in if k.kexpect.src = "cache" then plan_key () else k in
  let first = plan_key () in
  let d, setup =
    start_daemon ~exe:ctx.exe s
      ~first_payload:(encode_request (Protocol.request ~input:first.kinput ~app:first.kapp ~budget:first.kbudget ()))
  in
  Fun.protect ~finally:(fun () -> if Daemon.alive d then ignore (Daemon.stop d)) @@ fun () ->
  let nominal_s, ladder_s = split_window ctx in
  (* connection 0: telemetry replay, Poisson at 20 frames/s, dealing the
     apps in turn and each app's frames in order; connection 1: pipelined
     plan requests, five per frame, at uniform random times (Poisson at
     100 req/s, conditioned on that count) *)
  let tdues = Gen.poisson rng ~rate:20.0 ~dur_s:nominal_s ~start_us:0.0 in
  let pdues = uniform_dues rng ~n:(5 * Array.length tdues) ~dur_s:nominal_s in
  let napps = Array.length per_app in
  let tframes =
    Array.mapi (fun i _ -> let f = per_app.(i mod napps) in f.((i / napps) mod Array.length f)) tdues
  in
  let pkeys = Array.map (fun _ -> plan_key ()) pdues in
  let nt = Array.length tdues in
  let items =
    Array.append
      (Array.mapi (fun i due -> { Gen.id = i; due_us = due; payload = encode_telemetry tframes.(i).tm; conn = 0 }) tdues)
      (Array.mapi
         (fun i due ->
           let k = pkeys.(i) in
           {
             Gen.id = nt + i;
             due_us = due;
             payload = encode_request (Protocol.request ~input:k.kinput ~app:k.kapp ~budget:k.kbudget ());
             conn = 1;
           })
         pdues)
  in
  let res, cpu = daemon_cpu d (fun () -> Gen.run_persistent ~socket:s.socket ~conns:2 ~grace_s:30.0 items) in
  let cpu = per_kreq_ms cpu (Array.length items) in
  let p50, p99 = nominal_latency ~name:"nominal" items res in
  let first_reply conn =
    let its = List.filter (fun (it : Gen.item) -> it.Gen.conn = conn) (Array.to_list items) in
    match its with
    | [] -> 0.0
    | first :: _ ->
        let replies = List.filter_map (fun (it : Gen.item) -> let r = res.(it.Gen.id) in if Float.is_finite r.Gen.reply_us then Some r.Gen.reply_us else None) its in
        if replies = [] then infinity else (List.fold_left Float.min infinity replies -. first.Gen.due_us) /. 1000.0
  in
  let fr0 = first_reply 0 and fr1 = first_reply 1 in
  say "first reply: telemetry connection %.1f ms, plan connection %.1f ms" fr0 fr1;
  (* single persistent connection ladder of pipelined plan requests *)
  let max_rate =
    ladder ~name:"serve-stream" ~rates:(geometric 2000.0 1.25 16)
      ~limit_ms:2.0 ~total_s:ladder_s (fun r rung_s ->
        let dues = Gen.poisson rng ~rate:r ~dur_s:rung_s ~start_us:0.0 in
        let keys = Array.map (fun _ -> plan_key ()) dues in
        let its = make_items keys dues in
        let res = Gen.run_persistent ~socket:s.socket ~conns:1 ~grace_s:10.0 its in
        let _, _, misses = verify ~phase:"ladder" ~strict:false its res (Array.map (fun k -> k.kexpect) keys) in
        (latencies_ms its res, misses))
  in
  let rss = float_of_int (Daemon.vm_hwm_kb d.Daemon.pid) /. 1024.0 in
  let c = Daemon.stop d in
  (* checks *)
  let replans = ref 0 in
  Array.iteri
    (fun i (f : frame) ->
      incr attempted;
      let r = res.(i) in
      let bad m = incr failed; fail "stream telemetry %d: %s" i m in
      if r.Gen.error <> "" then bad r.Gen.error
      else match check_delta f r.Gen.reply with Ok () -> incr replans | Error m -> bad m)
    tframes;
  let pexpects = Array.append (Array.map (fun _ -> { src = "corpus"; reference = lazy ""; models = (snd (List.hd s.loaded)).Opprox.models; app = "" }) tframes) (Array.map (fun k -> k.kexpect) pkeys) in
  let pitems = Array.sub items nt (Array.length pkeys) in
  let counts, wrong, _ = verify ~phase:"stream plans" ~strict:true pitems res pexpects in
  say "replans %d of %d telemetry frame(s); plan replies corpus %d, nn %d; daemon plan_deltas %.0f"
    !replans nt (counts "corpus") (counts "nn") (Daemon.counter c "server.plan_deltas");
  if !replans = 0 || !replans <> nt then fail "tier coverage: %d replan(s) for %d over-tolerance frame(s)" !replans nt;
  if Daemon.counter c "server.plan_deltas" <> float_of_int nt then
    fail "tier coverage: daemon sent %.0f plan delta(s) for %d frame(s)" (Daemon.counter c "server.plan_deltas") nt;
  if wrong > 0 then fail "tier coverage: %d plan reply source(s) differ from the ones the keys were built for" wrong;
  say "fail_frac %.4f; controlled runs: speedup gmean %.4f, violation_frac %.4f"
    (ratio (float_of_int !failed) (float_of_int !attempted)) (Offline.gmean quality) (Offline.violation_frac quality);
  if ctx.trace then begin
    socket_layers ~items:pitems ~res ~expects:pexpects ~counts;
    metric "conn.first_reply_ms" "ms" (Float.max fr0 fr1);
    daemon_layers c;
    let pairs =
      replay_requests ~s ~workload:ctx.workload ~warm:[||]
        ~payloads:(Array.map (fun (it : Gen.item) -> it.payload) pitems)
        ~socket_p50_ms:(pct (sorted (latencies_ms pitems res)) 50.0)
    in
    (* the telemetry path, in-process *)
    let srv = Server.create ~config:{ Server.default_config with Server.corpus_path = Some s.corpus_path } (List.map snd s.loaded) in
    let codec = ref 0.0 and handle = ref 0.0 and suffix = ref [] in
    Array.iter
      (fun (f : frame) ->
        let t = now_us () in
        let tm = Protocol.telemetry_of_sexp (Sexp.of_string (encode_telemetry f.tm)) in
        codec := !codec +. (now_us () -. t);
        let t = now_us () in
        let resp = Server.handle_telemetry srv tm in
        handle := !handle +. (now_us () -. t);
        let t = now_us () in
        ignore (Protocol.response_of_sexp (Sexp.of_string (Sexp.to_string (Protocol.response_to_sexp resp))));
        codec := !codec +. (now_us () -. t);
        let tr = List.assoc f.tm.Protocol.t_app s.loaded in
        let input = Option.get f.tm.Protocol.t_input in
        let t = now_us () in
        ignore
          (Optimizer.solver ~models:tr.Opprox.models ~roi:tr.Opprox.roi ~input () ~first_phase:f.from_phase
             ~budget:(Float.max 0.0 f.tm.Protocol.remaining_budget) ());
        suffix := ((now_us () -. t) /. 1000.0) :: !suffix)
      tframes;
    let nf = float_of_int (max 1 nt) in
    metric "protocol.telemetry_codec_us" "us" (!codec /. nf);
    metric "server.telemetry_us" "us" (!handle /. nf);
    metric "optimizer.suffix_solve_ms" "ms" (median (Array.of_list !suffix));
    metric "quality.violation_frac" "ratio" (Offline.violation_frac quality);
    cross_check pairs
  end;
  end_to_end ~trace:ctx.trace ~setup ~p50 ~p99 ~rate:max_rate ~cpu ~rss ~offline:s.offline_s ~speedup:(Offline.gmean quality);
  rm_rf dir

(* ------------------------------------------------------------ offline *)

let startup_probe ctx =
  let times =
    Array.init 7 (fun _ ->
        let t = wall () in
        let pid = Unix.create_process ctx.self [| ctx.self; "--startup-probe" |] Unix.stdin Unix.stdout Unix.stderr in
        ignore (Unix.waitpid [] pid);
        wall () -. t)
  in
  describe "setup_s (process start->first timed call)" "s" times;
  median times

(* Held-out cells: 9 perturbed inputs x 3 budgets per enumeration app,
   spread evenly ([Offline.spread]) from a seeded start. *)
let heldout_cells rng =
  List.concat_map
    (fun (spec : Offline.spec) ->
      let app = Offline.registered spec.name in
      let n = Array.length app.App.default_input in
      let next = Offline.spread rng (n + 3) in
      List.concat
        (List.init 9 (fun _ ->
             let p = next () in
             let input = Array.mapi (fun j x -> x *. Offline.scale ~lo:0.8 ~hi:1.25 p.(j + 3)) app.App.default_input in
             List.init 3 (fun b -> (spec.name, input, Offline.scale ~lo:3.0 ~hi:25.0 p.(b))))))
    Offline.enumeration
  |> Array.of_list

type rep = {
  offline_s : float;
  heldout_s : float;
  heldout_cpu_s : float;  (** CPU time of the held-out pass, all domains *)
  train_ms : float array;  (** per app, in training order *)
  apply_ms : float array;
  plans : string array;
  quality : Offline.quality;
}

(* train -> precompute -> held-out solve-and-apply, from cold caches. *)
let offline_rep ~sp ~traced cells =
  Driver.clear_all_caches ();
  let t0 = wall () and st0 = steal_s () in
  let timed =
    List.map
      (fun s ->
        let t = now_us () in
        let tr = if traced then Offline.train_decomposed sp s else Offline.train s in
        ((s.Offline.name, tr), (now_us () -. t) /. 1000.0))
      Offline.enumeration
  in
  let trained = List.map fst timed in
  let _entries, _ =
    Spans.span sp "precompute.sweep" ~req:(-1) (fun () ->
        Opprox_corpus.Precompute.sweep ~inputs:Offline.corpus_inputs ~budgets:Offline.budget_grid (List.map snd trained))
  in
  let t1 = wall () and c1 = cpu_s () in
  let out =
    Pool.parallel_map
      (fun (app, input, budget) ->
        let tr = List.assoc app trained in
        let plan = Opprox.optimize ~input tr ~budget in
        let t' = now_us () in
        let ev = Opprox.apply ~input tr plan in
        let t'' = now_us () in
        ( (t'' -. t') /. 1000.0,
          plan_string plan,
          ev.Driver.speedup,
          ev.Driver.qos_degradation > budget +. 1e-9 ))
      cells
  in
  let t2 = wall () and c2 = cpu_s () in
  let offline_s, _, _ = wall_less_steal ~t0 ~st0 in
  ( trained,
    {
      offline_s;
      heldout_s = t2 -. t1;
      heldout_cpu_s = c2 -. c1;
      train_ms = Array.of_list (List.map snd timed);
      apply_ms = Array.map (fun (b, _, _, _) -> b) out;
      plans = Array.map (fun (_, p, _, _) -> p) out;
      quality =
        {
          Offline.speedups = Array.map (fun (_, _, s, _) -> s) out;
          violations = Array.fold_left (fun n (_, _, _, v) -> if v then n + 1 else n) 0 out;
          cells = Array.length out;
        };
    } )

let train_plan ctx =
  let rng = Rng.create (ctx.seed * 7919 + 4) in
  let setup = startup_probe ctx in
  let cells = heldout_cells rng in
  let t_start = wall () in
  let reps = ref [] in
  let sp = Spans.create () in
  let c0 = snapshot (offline_counter_names @ [ "optimizer.sweeps"; "optimizer.solves"; "optimizer.predict.hit"; "optimizer.predict.miss" ]) in
  while !reps = [] || (wall () -. t_start < float_of_int ctx.seconds && List.length !reps < 8) do
    let traced = ctx.trace && !reps = [] in
    let trained, r = offline_rep ~sp ~traced cells in
    if traced then begin
      offline_layers sp ~wall_s:r.offline_s ~counters0:c0;
      let d name = counter name -. List.assoc name c0 in
      metric "optimizer.sweeps_per_solve" "count" (ratio (d "optimizer.sweeps") (d "optimizer.solves"));
      metric "optimizer.predict_hit_ratio" "ratio"
        (ratio (d "optimizer.predict.hit") (d "optimizer.predict.hit" +. d "optimizer.predict.miss"));
      (* the decomposed pipeline must equal Opprox.train's *)
      List.iter
        (fun (spec : Offline.spec) ->
          incr attempted;
          let whole = Offline.train spec in
          let mine = List.assoc spec.name trained in
          if Sexp.to_string (Opprox.Models.to_sexp whole.Opprox.models)
             <> Sexp.to_string (Opprox.Models.to_sexp mine.Opprox.models)
          then begin
            incr failed;
            fail "%s: decomposed pipeline differs from Opprox.train" spec.name
          end)
        Offline.enumeration
    end;
    say "offline pass %d: %.3f s (held-out %.3f s over %d cell(s))" (List.length !reps + 1) r.offline_s r.heldout_s
      (Array.length cells);
    reps := r :: !reps
  done;
  let reps = Array.of_list (List.rev !reps) in
  let r0 = reps.(0) in
  (* every pass must produce the same plans and the same outcomes *)
  Array.iteri
    (fun i r ->
      Array.iteri
        (fun j p ->
          incr attempted;
          if p <> r0.plans.(j) || r.quality.Offline.speedups.(j) <> r0.quality.Offline.speedups.(j) then begin
            incr failed;
            fail "pass %d, held-out cell %d: plan or outcome differs from pass 1" (i + 1) j
          end)
        r.plans)
    reps;
  let offline = Array.map (fun r -> r.offline_s) reps in
  describe "offline_s (train->precompute->held-out)" "s" offline;
  let lat = Array.concat (List.map (fun r -> r.train_ms) (Array.to_list reps)) in
  describe "per-app training latency" "ms" lat;
  let rates = Array.map (fun r -> float_of_int (Array.length cells) /. r.heldout_s) reps in
  describe "held-out cells/s" "1/s" rates;
  let cpu = Array.map (fun r -> r.heldout_cpu_s *. 1e6 /. float_of_int (Array.length cells)) reps in
  describe "held-out CPU per 1000 cells" "ms" cpu;
  let q = r0.quality in
  say "held-out quality: speedup gmean %.4f over %d cell(s), %d over budget (violation_frac %.4f); fail_frac %.4f"
    (Offline.gmean q) q.Offline.cells q.Offline.violations (Offline.violation_frac q)
    (ratio (float_of_int !failed) (float_of_int !attempted));
  let rss = float_of_int (Daemon.vm_hwm_kb 0) /. 1024.0 in
  if ctx.trace then begin
    metric "driver.apply_ms" "ms" (median r0.apply_ms);
    metric "quality.violation_frac" "ratio" (Offline.violation_frac q)
  end;
  let s = sorted lat in
  end_to_end ~trace:ctx.trace ~setup ~p50:(pct s 50.0) ~p99:(pct s (tail_q (Array.length s)))
    ~rate:(median rates) ~cpu:(median cpu) ~rss ~offline:(median offline) ~speedup:(Offline.gmean q)

(* --------------------------------------------------------------- main *)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--startup-probe" then exit 0;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* an interrupted run still drains the daemon it spawned *)
  let interrupt = Sys.Signal_handle (fun _ -> failwith "interrupted") in
  Sys.set_signal Sys.sigterm interrupt;
  Sys.set_signal Sys.sigint interrupt;
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let exe = ref "_build/default/bin/opprox_cli.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W serve-lookup | serve-solve | serve-stream | train-plan");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--opprox", Arg.Set_string exe, "PATH the opprox executable to serve with");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "serve-lookup" -> serve_lookup
    | "serve-solve" -> serve_solve
    | "serve-stream" -> serve_stream
    | "train-plan" -> train_plan
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  if not (Sys.file_exists !exe) then begin
    Printf.eprintf "opprox executable %s not found\n" !exe;
    exit 2
  end;
  let ctx =
    { workload = !workload; seed = !seed; seconds = max 1 !seconds; trace = !trace = 1; exe = !exe; self = Sys.executable_name }
  in
  ignore (Sys.command "mkdir -p perfbench/_work");
  let prov = provenance ~workload:ctx.workload ~seed:ctx.seed ~seconds:ctx.seconds ~trace:!trace in
  List.iter (fun (k, v) -> say "provenance %-26s %s" k v) prov;
  let t = wall () and st = steal_s () in
  (match run ctx with
  | () -> ()
  | exception e -> fail "%s aborted: %s" ctx.workload (Printexc.to_string e));
  if ctx.trace then fill_missing ();
  say "%s finished in %.1f s (host steal %.2f s): %d failure(s)" ctx.workload (wall () -. t)
    (steal_s () -. st) (List.length !failures);
  let oc = open_out (Printf.sprintf "perfbench/_work/result-%s-%d-trace%d.txt" ctx.workload ctx.seed !trace) in
  List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n" k v) prov;
  List.iter (fun (n, v, u) -> Printf.fprintf oc "%s\t%.17g\t%s\n" n v u) (List.rev !metrics);
  close_out oc;
  print_result ();
  exit (if !failures = [] then 0 else 1)
