(* Tests for the stochastic schedule search (lib/search): mutation
   operators, the model-priced cost, single chains, the multi-chain
   driver, the optimizer integration (Stochastic strategy + the PLAN010
   fallback visibility), and the SRCH lint rules.  Everything searches
   over [Fixtures.toy] (2 ABs x 4 levels x 2 phases = 256 schedules), so
   the enumerated optimizer is an exact reference. *)

module App = Opprox_sim.App
module Ab = Opprox_sim.Ab
module Rng = Opprox_util.Rng
module Pool = Opprox_util.Pool
module Metrics = Opprox_obs.Metrics
module Optimizer = Opprox.Optimizer
module Models = Opprox.Models
module Diagnostic = Opprox_analysis.Diagnostic
module Lint_search = Opprox_analysis.Lint_search
module Mutate = Opprox_search.Mutate
module Cost = Opprox_search.Cost
module Mcmc = Opprox_search.Mcmc
module Search = Opprox_search.Search
open Fixtures

let trained =
  lazy (Opprox.train ~config:{ Opprox.default_train_config with n_phases = Some 2 } toy)

let budget = 10.0

let cost () =
  let tr = Lazy.force trained in
  Cost.make ~models:tr.Opprox.models ~input:tr.Opprox.app.App.default_input ~budget

let toy_abs = toy.App.abs
let zero_sched n_phases = Array.init n_phases (fun _ -> Array.make (Array.length toy_abs) 0)

(* --------------------------------------------------------------- Mutate *)

let test_mutate_perturb () =
  let rng = Rng.create 11 in
  for _ = 1 to 200 do
    let before = zero_sched 2 in
    before.(0).(0) <- 2;
    before.(1).(1) <- 3;
    let snapshot = Array.map Array.copy before in
    let after = Mutate.perturb rng ~abs:toy_abs ~first_phase:0 before in
    check_bool "input untouched" true (before = snapshot);
    let diffs = ref [] in
    Array.iteri
      (fun p row ->
        Array.iteri (fun a l -> if l <> before.(p).(a) then diffs := (p, a, l) :: !diffs) row)
      after;
    (match !diffs with
    | [ (p, a, l) ] ->
        check_int "one step" 1 (abs (l - before.(p).(a)));
        check_bool "in range" true (l >= 0 && l <= toy_abs.(a).Ab.max_level)
    | _ -> Alcotest.fail "perturb must change exactly one cell")
  done

let test_mutate_respects_first_phase () =
  let rng = Rng.create 5 in
  for _ = 1 to 200 do
    let before = Array.init 3 (fun p -> Array.make 2 (p mod 2)) in
    let after = Mutate.apply rng ~abs:toy_abs ~first_phase:2 before in
    check_bool "executed prefix untouched" true
      (after.(0) = before.(0) && after.(1) = before.(1))
  done

let test_mutate_swap_preserves_rows () =
  let rng = Rng.create 3 in
  let before = [| [| 1; 2 |]; [| 3; 0 |]; [| 0; 3 |] |] in
  for _ = 1 to 50 do
    let after = Mutate.swap rng ~abs:toy_abs ~first_phase:0 before in
    let sort m = List.sort compare (Array.to_list (Array.map Array.to_list m)) in
    check_bool "same multiset of rows" true (sort after = sort before)
  done

let test_mutate_tighten_loosen () =
  let rng = Rng.create 1 in
  let before = [| [| 0; 3 |]; [| 2; 1 |] |] in
  let t = Mutate.tighten rng ~abs:toy_abs ~first_phase:0 before in
  check_bool "tighten steps down, clamped" true (t = [| [| 0; 2 |]; [| 1; 0 |] |]);
  let l = Mutate.loosen rng ~abs:toy_abs ~first_phase:0 before in
  check_bool "loosen steps up, clamped" true (l = [| [| 1; 3 |]; [| 3; 2 |] |])

let test_mutate_resample_in_range () =
  let rng = Rng.create 9 in
  for _ = 1 to 100 do
    let after = Mutate.resample rng ~abs:toy_abs ~first_phase:0 (zero_sched 2) in
    Array.iter
      (fun row ->
        Array.iteri
          (fun a lvl ->
            check_bool "level in range" true (lvl >= 0 && lvl <= toy_abs.(a).Ab.max_level))
          row)
      after
  done

(* ----------------------------------------------------------------- Cost *)

let test_cost_all_exact_feasible () =
  let c = cost () in
  let e = Cost.eval c (zero_sched 2) in
  check_bool "all-exact is feasible" true e.Cost.feasible;
  check_bool "zero-anchor qos" true (e.Cost.qos_hi < 1.0);
  check_bool "cost is negated speedup" true (e.Cost.cost < 0.0)

let test_cost_penalizes_overrun () =
  let tr = Lazy.force trained in
  let tight = Cost.make ~models:tr.Opprox.models ~input:tr.Opprox.app.App.default_input ~budget:0.001 in
  let maxed = Array.init 2 (fun _ -> Array.map (fun (ab : Ab.t) -> ab.Ab.max_level) toy_abs) in
  let e = Cost.eval tight maxed in
  check_bool "over budget is infeasible" true (not e.Cost.feasible);
  check_bool "penalty dominates" true (e.Cost.cost > 0.0)

let test_cost_deterministic () =
  let c = cost () in
  let sched = [| [| 1; 2 |]; [| 3; 0 |] |] in
  check_bool "same eval twice" true (Cost.eval c sched = Cost.eval c sched)

(* ----------------------------------------------------------------- Mcmc *)

let run_chain seed iters =
  let c = cost () in
  (c, Mcmc.run ~rng:(Rng.create seed) ~cost:c ~first_phase:0 (Mcmc.default_config ~iters))

let test_mcmc_deterministic () =
  let _, a = run_chain 42 300 in
  let _, b = run_chain 42 300 in
  check_bool "identical runs" true (a = b)

let test_mcmc_best_feasible_and_improving () =
  let c, r = run_chain 7 300 in
  match r.Mcmc.best with
  | None -> Alcotest.fail "expected a feasible best"
  | Some (sched, e) ->
      check_bool "feasible" true e.Cost.feasible;
      check_bool "qos within budget" true (e.Cost.qos_hi <= budget +. 1e-6);
      check_bool "eval matches schedule" true (Cost.eval c sched = e);
      let exact = Cost.eval c (zero_sched 2) in
      check_bool "no worse than all-exact" true (e.Cost.cost <= exact.Cost.cost)

let test_mcmc_polish_fixed_point () =
  let c, r = run_chain 3 100 in
  let sched, e = Mcmc.polish ~cost:c ~first_phase:0 (fst (Option.get r.Mcmc.best)) in
  let sched2, e2 = Mcmc.polish ~cost:c ~first_phase:0 sched in
  check_bool "polish is a fixed point" true (sched = sched2 && e = e2);
  check_bool "polish never worsens" true
    (e.Cost.cost <= (snd (Option.get r.Mcmc.best)).Cost.cost +. 1e-12)

(* ------------------------------------------- incremental pricing pins *)

(* Three phases on the toy app, so proposals and swaps leave some rows
   alone and change others. *)
let trained3 =
  lazy (Opprox.train ~config:{ Opprox.default_train_config with n_phases = Some 3 } toy)

let cost3 ?(budget = budget) () =
  let tr = Lazy.force trained3 in
  Cost.make ~models:tr.Opprox.models ~input:tr.Opprox.app.App.default_input ~budget

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_eval (a : Cost.eval) (b : Cost.eval) =
  same_bits a.Cost.cost b.Cost.cost && same_bits a.Cost.speedup b.Cost.speedup
  && same_bits a.Cost.speedup_lo b.Cost.speedup_lo
  && same_bits a.Cost.qos_hi b.Cost.qos_hi && a.Cost.feasible = b.Cost.feasible

(* [Cost.eval] as it was before the memo was keyed on every level: no
   memo, QoS summed from the last phase down, speedups composed from
   lists in phase order. *)
let reference_eval ~predict ~budget sched =
  let compose l =
    1.0 /. Float.max 0.05 (1.0 -. List.fold_left (fun acc s -> acc +. (1.0 -. (1.0 /. Float.max 0.01 s))) 0.0 l)
  in
  let speedups = ref [] and speedups_lo = ref [] and qos = ref 0.0 in
  for phase = Array.length sched - 1 downto 0 do
    let p = predict ~phase ~levels:sched.(phase) in
    speedups := p.Models.speedup :: !speedups;
    speedups_lo := p.Models.speedup_lo :: !speedups_lo;
    qos := !qos +. Float.max 0.0 p.Models.qos_hi
  done;
  let speedup = compose !speedups in
  let speedup_lo = compose !speedups_lo in
  let overrun = Float.max 0.0 (!qos -. budget) in
  {
    Cost.cost = (-.speedup_lo) +. (Cost.penalty *. overrun);
    speedup;
    speedup_lo;
    qos_hi = !qos;
    feasible = !qos <= budget +. (1e-6 *. Float.max 1.0 (Float.abs budget));
  }

let test_memo_eval_matches_reference () =
  (* A chain's walk: every Mutate move, priced by one cost whose memo
     fills as it goes (most rows are hits), must equal the memo-free
     reference and a cold cost, bit for bit. *)
  let tr = Lazy.force trained3 in
  let predict = Models.predictor tr.Opprox.models ~input:tr.Opprox.app.App.default_input in
  List.iter
    (fun first_phase ->
      let c = cost3 () in
      let rng = Rng.create (97 + first_phase) in
      let current = ref (Array.init 3 (fun _ -> Array.make (Array.length toy_abs) 0)) in
      for step = 1 to 500 do
        let next = Mutate.apply rng ~abs:toy_abs ~first_phase !current in
        current := next;
        let e = Cost.eval c next in
        if not (same_eval e (Cost.eval (cost3 ()) next) && same_eval e (reference_eval ~predict ~budget next))
        then Alcotest.failf "first_phase %d, step %d: memo eval differs" first_phase step
      done;
      check_bool "walk revisits rows" true (Cost.hits c > Cost.misses c))
    [ 0; 1; 2 ]

(* [Mcmc.polish] as it was before it moved in place: every descent
   candidate is a fresh copy of the schedule.  Kept as the reference the
   in-place version must match. *)
let reference_polish ~cost ~first_phase sched =
  let copy_sched = Array.map Array.copy in
  let abs = Cost.abs cost in
  let n_phases = Cost.n_phases cost in
  let n_abs = Array.length abs in
  let current = ref (copy_sched sched) in
  let current_eval = ref (Cost.eval cost !current) in
  let improved = ref true in
  let passes = ref 0 in
  let max_passes = Stdlib.max 16 (4 * n_phases * n_abs * 8) in
  while !improved && !passes < max_passes do
    incr passes;
    improved := false;
    let best_move = ref None in
    let consider candidate =
      let e = Cost.eval cost candidate in
      if e.Cost.feasible && e.Cost.cost < !current_eval.Cost.cost -. 1e-12 then
        match !best_move with
        | Some (_, be) when be.Cost.cost <= e.Cost.cost -> ()
        | _ -> best_move := Some (candidate, e)
    in
    for phase = first_phase to n_phases - 1 do
      for ab = 0 to n_abs - 1 do
        List.iter
          (fun delta ->
            let l = !current.(phase).(ab) + delta in
            if l >= 0 && l <= abs.(ab).Ab.max_level then begin
              let candidate = copy_sched !current in
              candidate.(phase).(ab) <- l;
              consider candidate
            end)
          [ 1; -1 ]
      done
    done;
    for p = first_phase to n_phases - 2 do
      for q = p + 1 to n_phases - 1 do
        if !current.(p) <> !current.(q) then begin
          let candidate = copy_sched !current in
          let tmp = candidate.(p) in
          candidate.(p) <- candidate.(q);
          candidate.(q) <- tmp;
          consider candidate
        end
      done
    done;
    match !best_move with
    | Some (candidate, e) ->
        current := candidate;
        current_eval := e;
        improved := true
    | None -> ()
  done;
  (!current, !current_eval)

(* A random schedule that is feasible at [budget]: random rows, with
   cells stepped down towards exact until the schedule fits. *)
let random_feasible rng c =
  let sched = Array.init 3 (fun _ -> Opprox_sim.Config_space.random rng toy_abs) in
  while not (Cost.eval c sched).Cost.feasible do
    let phase = Rng.int rng 3 and ab = Rng.int rng (Array.length toy_abs) in
    sched.(phase).(ab) <- Stdlib.max 0 (sched.(phase).(ab) - 1)
  done;
  sched

let prop_polish_matches_reference =
  qcheck_case ~count:60 "in-place polish = copy-based polish"
    QCheck.(triple (int_range 0 10_000) (int_range 0 2) (oneofl [ 2.0; 10.0; 25.0 ]))
    (fun (seed, first_phase, budget) ->
      let c = cost3 ~budget () in
      let start = random_feasible (Rng.create seed) c in
      let snapshot = Array.map Array.copy start in
      let sched, e = Mcmc.polish ~cost:c ~first_phase start in
      let ref_sched, ref_e = reference_polish ~cost:(cost3 ~budget ()) ~first_phase start in
      start = snapshot && sched = ref_sched && same_eval e ref_e)

let test_polish_pass_allocation () =
  (* From a local optimum polish runs one pass that accepts nothing: it
     prices every (phase, AB, +-1) step and every swap of unequal rows,
     all memo hits once a first polish has warmed the memo.  Each
     candidate then allocates its eval record and nothing else — no
     schedule copy (a 3 x 2 schedule is 13 words), no key. *)
  let c = cost3 ~budget:10.0 () in
  let start = random_feasible (Rng.create 5) c in
  let opt, e = Mcmc.polish ~cost:c ~first_phase:0 start in
  ignore (Mcmc.polish ~cost:c ~first_phase:0 opt);
  let candidates = ref 0 in
  Array.iter
    (fun row ->
      Array.iteri
        (fun ab l ->
          let m = toy_abs.(ab).Ab.max_level in
          if l + 1 <= m then incr candidates;
          if l - 1 >= 0 then incr candidates)
        row)
    opt;
  for p = 0 to 1 do
    for q = p + 1 to 2 do
      if opt.(p) <> opt.(q) then incr candidates
    done
  done;
  (* What pricing one candidate allocates: its eval record with the
     record's boxed floats, and at most one more boxed float. *)
  let b0 = Gc.minor_words () in
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (Cost.eval c opt))
  done;
  let eval_alloc = (Gc.minor_words () -. b0) /. 100.0 in
  let eval_words = float_of_int (Obj.reachable_words (Obj.repr e)) in
  check_bool
    (Printf.sprintf "an eval allocates %.1f words (record: %.0f)" eval_alloc eval_words)
    true (eval_alloc <= eval_words +. 2.0);
  let misses = Cost.misses c in
  let before = Gc.minor_words () in
  let again, _ = Mcmc.polish ~cost:c ~first_phase:0 opt in
  let words = Gc.minor_words () -. before in
  check_bool "fixed point" true (again = opt);
  check_int "memo warm: nothing priced" misses (Cost.misses c);
  (* The slack covers the private copy and the closures of the one
     pass; a schedule copy per candidate would add 13 words each. *)
  let bound = (float_of_int !candidates *. eval_alloc) +. 96.0 in
  check_bool
    (Printf.sprintf "%d candidates allocate %.0f words (bound %.0f)" !candidates words bound)
    true (words <= bound)

(* --------------------------------------------------------------- Search *)

let matrix s =
  Array.init (Opprox_sim.Schedule.n_phases s) (Opprox_sim.Schedule.levels_of_phase s)

let solve ?(chains = 2) ?(iters = 400) ?(seed = 0xBEEF) ?(budget = budget) () =
  let tr = Lazy.force trained in
  Search.solve
    ~config:{ Search.chains; iters; seed }
    ~models:tr.Opprox.models ~input:tr.Opprox.app.App.default_input ~budget ()

(* The issue's determinism property: same seed, chains in {1,2,8} ->
   bit-identical best schedules. *)
let test_search_chain_count_invariant =
  qcheck_case ~count:8 "chains in {1,2,8} agree" QCheck.(int_range 0 1000) (fun seed ->
      let sched chains =
        let plan, _ = solve ~chains ~seed () in
        matrix plan.Optimizer.schedule
      in
      let s1 = sched 1 and s2 = sched 2 and s8 = sched 8 in
      s1 = s2 && s2 = s8)

let test_search_jobs_invariant () =
  (* Same seed, different pool sizes -> bit-identical result. *)
  let tr = Lazy.force trained in
  let run jobs =
    let pool = Pool.create ~jobs () in
    let plan, stats =
      Search.solve
        ~config:{ Search.chains = 4; iters = 300; seed = 0xA11CE }
        ~pool ~models:tr.Opprox.models ~input:tr.Opprox.app.App.default_input ~budget ()
    in
    Pool.shutdown pool;
    (matrix plan.Optimizer.schedule, stats.Search.chain_costs)
  in
  check_bool "jobs 1 = jobs 4" true (run 1 = run 4)

let test_search_reaches_oracle () =
  (* On the enumerable toy the MCMC must reach >= 95% of the enumerated
     optimizer's predicted speedup (it searches a superset of Algorithm
     2's per-phase-split space, so it usually matches or beats it). *)
  let tr = Lazy.force trained in
  let oracle =
    Optimizer.optimize ~search:Optimizer.Enumerate ~models:tr.Opprox.models ~roi:tr.Opprox.roi
      ~input:tr.Opprox.app.App.default_input ~budget ()
  in
  let plan, stats = solve ~chains:4 ~iters:600 () in
  check_bool "feasible" true stats.Search.feasible;
  check_bool "within 95% of oracle" true
    (plan.Optimizer.predicted_speedup >= 0.95 *. oracle.Optimizer.predicted_speedup)

let test_search_plan_lints_clean () =
  let tr = Lazy.force trained in
  let plan, _stats = solve () in
  let diags = Optimizer.lint ~models:tr.Opprox.models plan in
  check_int "no lint findings" 0 (List.length (Diagnostic.errors diags));
  check_bool "predicted qos within budget" true (plan.Optimizer.predicted_qos <= budget +. 1e-6);
  check_bool "sub-budgets are predicted consumption" true
    (List.for_all
       (fun (c : Optimizer.phase_choice) ->
         Float.abs (c.Optimizer.sub_budget -. Float.max 0.0 c.Optimizer.predicted.Models.qos_hi)
         < 1e-9)
       plan.Optimizer.choices)

let test_search_stats_accounting () =
  let _, stats = solve ~chains:3 ~iters:200 () in
  check_int "chains" 3 stats.Search.chains;
  check_int "steps = chains x iters" 600 stats.Search.steps;
  check_int "chain costs per chain" 3 (Array.length stats.Search.chain_costs);
  check_bool "accepts bounded by steps" true
    (stats.Search.accepts >= 0 && stats.Search.accepts <= stats.Search.steps);
  check_bool "winning chain indexed" true
    (stats.Search.best_chain >= 0 && stats.Search.best_chain < 3)

let test_search_infeasible_falls_back_exact () =
  (* A negative budget admits nothing, not even the all-exact schedule:
     the driver must fall back to all-exact and say so via SRCH002. *)
  let tr = Lazy.force trained in
  let levels, stats =
    Search.solve_levels
      ~config:{ Search.chains = 2; iters = 50; seed = 1 }
      ~models:tr.Opprox.models ~input:tr.Opprox.app.App.default_input ~budget:(-5.0) ()
  in
  check_bool "all-exact fallback" true
    (Array.for_all (fun row -> Array.for_all (fun l -> l = 0) row) levels);
  check_bool "marked infeasible" true (not stats.Search.feasible);
  check_bool "SRCH002 reported" true
    (List.exists (fun (d : Diagnostic.t) -> d.Diagnostic.code = "SRCH002") stats.Search.diagnostics)

(* -------------------------------------------------- optimizer integration *)

let test_optimizer_stochastic_strategy () =
  let tr = Lazy.force trained in
  check_bool "solver registered by linking opprox.search" true (Optimizer.stochastic_available ());
  let plan =
    Optimizer.optimize ~search:Optimizer.Stochastic
      ~stochastic:{ Optimizer.chains = 2; iters = 400; seed = 77 }
      ~models:tr.Opprox.models ~roi:tr.Opprox.roi ~input:tr.Opprox.app.App.default_input
      ~budget ()
  in
  check_bool "qos within budget" true (plan.Optimizer.predicted_qos <= budget +. 1e-6);
  check_int "no lint errors" 0
    (List.length (Diagnostic.errors (Optimizer.lint ~models:tr.Opprox.models plan)))

let with_captured_logs f =
  let buf = Buffer.create 256 in
  let reporter =
    {
      Logs.report =
        (fun src level ~over k msgf ->
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.kasprintf
                (fun s ->
                  Buffer.add_string buf
                    (Printf.sprintf "[%s][%s] %s\n"
                       (Logs.level_to_string (Some level))
                       (Logs.Src.name src) s);
                  over ();
                  k ())
                fmt));
    }
  in
  let old_reporter = Logs.reporter () in
  let old_level = Logs.level () in
  Logs.set_reporter reporter;
  Logs.set_level (Some Logs.Warning);
  let result =
    Fun.protect
      ~finally:(fun () ->
        Logs.set_reporter old_reporter;
        Logs.set_level old_level)
      f
  in
  (result, Buffer.contents buf)

let has_sub s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  go 0

let metric_value name =
  match Metrics.find name with Some (Metrics.Counter n) -> n | _ -> 0

let test_optimizer_fallback_visible () =
  (* The satellite regression: exceeding enumeration_limit must log the
     Warning-severity PLAN010 diagnostic and bump optimizer.fallbacks. *)
  let tr = Lazy.force trained in
  let before = metric_value "optimizer.fallbacks" in
  let plan, logs =
    with_captured_logs (fun () ->
        Optimizer.optimize ~enumeration_limit:1 ~models:tr.Opprox.models ~roi:tr.Opprox.roi
          ~input:tr.Opprox.app.App.default_input ~budget ())
  in
  check_int "fallback counter bumped" (before + 1) (metric_value "optimizer.fallbacks");
  check_bool "PLAN010 logged" true (has_sub logs "PLAN010" && has_sub logs "warning");
  (* With opprox.search linked the automatic fallback goes stochastic and
     still produces a lint-clean plan. *)
  check_bool "plan within budget" true (plan.Optimizer.predicted_qos <= budget +. 1e-6)

(* A 21-AB app's configuration count saturates at [max_int]: the
   automatic strategy must still see a space past the enumeration limit
   (Enumerate would ask the staircase for [max_int] points or, with a
   wrapped count, for none), fall back visibly, and the search's memo
   must key on every level. *)
let wide_trained =
  lazy
    (Opprox.train
       ~config:
         {
           Opprox.default_train_config with
           n_phases = Some 2;
           training = { Opprox.default_train_config.training with joint_samples_per_phase = 4 };
           (* Linear models without MIC screening or splits: over 22
              features the full fitting ladder takes a minute, and this
              test is about the space, not the fit. *)
           model =
             {
               Opprox.default_train_config.model with
               regression =
                 {
                   Opprox.default_train_config.model.regression with
                   max_degree = 1;
                   folds = 2;
                   max_splits = 0;
                   mic_threshold = None;
                 };
             };
         }
       wide)

let test_optimizer_saturated_space () =
  let tr = Lazy.force wide_trained in
  check_int "count saturates" max_int (Opprox_sim.Config_space.count wide.App.abs);
  let before = metric_value "optimizer.fallbacks" in
  let plan, logs =
    with_captured_logs (fun () ->
        Optimizer.optimize
          ~stochastic:{ Optimizer.chains = 2; iters = 150; seed = 3 }
          ~models:tr.Opprox.models ~roi:tr.Opprox.roi ~input:wide.App.default_input ~budget ())
  in
  check_int "fallback counter bumped" (before + 1) (metric_value "optimizer.fallbacks");
  check_bool "PLAN010 logged" true (has_sub logs "PLAN010");
  check_bool "plan within budget" true (plan.Optimizer.predicted_qos <= budget +. 1e-6)

(* ------------------------------------------------------------ SRCH lint *)

let srch_view ?(chain_costs = [| -1.5; -1.5 |]) ?(best_cost = -1.5) ?(best_qos_hi = 5.0)
    ?(feasible = true) () =
  {
    Lint_search.app_name = "toy";
    budget = 10.0;
    chain_costs;
    best_cost;
    best_qos_hi;
    feasible;
  }

let codes view = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) (Lint_search.check view)

let test_lint_search_clean () = check_bool "agreement is clean" true (codes (srch_view ()) = [])

let test_lint_search_divergence () =
  check_bool "SRCH001 on spread" true
    (codes (srch_view ~chain_costs:[| -2.0; -1.0 |] ~best_cost:(-2.0) ()) = [ "SRCH001" ]);
  check_bool "nan chains ignored" true
    (codes (srch_view ~chain_costs:[| -1.5; Float.nan |] ()) = [])

let test_lint_search_infeasible () =
  check_bool "SRCH002" true
    (codes (srch_view ~feasible:false ~chain_costs:[| Float.nan |] ()) = [ "SRCH002" ])

let test_lint_search_budget_violation () =
  let ds = Lint_search.check (srch_view ~best_qos_hi:11.0 ()) in
  check_bool "SRCH003 is an error" true
    (List.exists
       (fun (d : Diagnostic.t) ->
         d.Diagnostic.code = "SRCH003" && d.Diagnostic.severity = Diagnostic.Error)
       ds)

let test_srch_codes_registered () =
  List.iter
    (fun code ->
      check_bool (code ^ " registered") true (List.mem_assoc code Diagnostic.codes))
    [ "PLAN010"; "SRCH001"; "SRCH002"; "SRCH003" ]

let suite =
  [
    ( "search-mutate",
      [
        Alcotest.test_case "perturb one cell" `Quick test_mutate_perturb;
        Alcotest.test_case "first_phase frozen" `Quick test_mutate_respects_first_phase;
        Alcotest.test_case "swap preserves rows" `Quick test_mutate_swap_preserves_rows;
        Alcotest.test_case "tighten/loosen clamp" `Quick test_mutate_tighten_loosen;
        Alcotest.test_case "resample in range" `Quick test_mutate_resample_in_range;
      ] );
    ( "search-cost",
      [
        Alcotest.test_case "all-exact feasible" `Quick test_cost_all_exact_feasible;
        Alcotest.test_case "overrun penalized" `Quick test_cost_penalizes_overrun;
        Alcotest.test_case "deterministic" `Quick test_cost_deterministic;
      ] );
    ( "search-mcmc",
      [
        Alcotest.test_case "deterministic" `Quick test_mcmc_deterministic;
        Alcotest.test_case "best feasible, improving" `Quick test_mcmc_best_feasible_and_improving;
        Alcotest.test_case "polish fixed point" `Quick test_mcmc_polish_fixed_point;
        Alcotest.test_case "memo eval = reference eval" `Quick test_memo_eval_matches_reference;
        prop_polish_matches_reference;
        Alcotest.test_case "polish pass allocation" `Quick test_polish_pass_allocation;
      ] );
    ( "search-driver",
      [
        test_search_chain_count_invariant;
        Alcotest.test_case "jobs invariant" `Quick test_search_jobs_invariant;
        Alcotest.test_case "reaches 95% of oracle" `Quick test_search_reaches_oracle;
        Alcotest.test_case "plan lints clean" `Quick test_search_plan_lints_clean;
        Alcotest.test_case "stats accounting" `Quick test_search_stats_accounting;
        Alcotest.test_case "infeasible falls back exact" `Quick
          test_search_infeasible_falls_back_exact;
      ] );
    ( "search-optimizer",
      [
        Alcotest.test_case "stochastic strategy" `Quick test_optimizer_stochastic_strategy;
        Alcotest.test_case "fallback visible (PLAN010)" `Quick test_optimizer_fallback_visible;
        Alcotest.test_case "saturated space falls back" `Quick test_optimizer_saturated_space;
      ] );
    ( "search-lint",
      [
        Alcotest.test_case "clean agreement" `Quick test_lint_search_clean;
        Alcotest.test_case "divergence" `Quick test_lint_search_divergence;
        Alcotest.test_case "infeasible everywhere" `Quick test_lint_search_infeasible;
        Alcotest.test_case "budget violation" `Quick test_lint_search_budget_violation;
        Alcotest.test_case "codes registered" `Quick test_srch_codes_registered;
      ] );
  ]
