(* Tests for the OPPROX core: Cfmodel, Training, Roi, Phases, Models,
   Optimizer, Oracle, and the end-to-end facade.  Everything runs on the
   fast [Fixtures.toy] and [Fixtures.flow] applications. *)

module App = Opprox_sim.App
module Driver = Opprox_sim.Driver
module Schedule = Opprox_sim.Schedule
module Training = Opprox.Training
module Models = Opprox.Models
module Roi = Opprox.Roi
module Optimizer = Opprox.Optimizer
module Oracle = Opprox.Oracle
module Phases = Opprox.Phases
module Cfmodel = Opprox.Cfmodel
module Frontier = Opprox.Frontier
module Ab = Opprox_sim.Ab
open Fixtures

(* Shared trained pipeline on the toy app (built once). *)
let trained =
  lazy
    (Opprox.train
       ~config:{ Opprox.default_train_config with n_phases = Some 2 }
       toy)

(* -------------------------------------------------------------- Cfmodel *)

let test_cfmodel_flow_classes () =
  let cf = Cfmodel.build flow ~inputs:flow.App.training_inputs in
  check_int "two control flows" 2 (Cfmodel.n_classes cf);
  check_float "classifier accuracy" 1.0 (Cfmodel.training_accuracy cf);
  (* Even and odd modes land in different classes. *)
  check_bool "even/odd differ" true (Cfmodel.classify cf [| 0.0 |] <> Cfmodel.classify cf [| 1.0 |])

let test_cfmodel_single_class () =
  let cf = Cfmodel.build toy ~inputs:toy.App.training_inputs in
  check_int "one control flow" 1 (Cfmodel.n_classes cf)

let test_cfmodel_unseen_trace () =
  let cf = Cfmodel.build toy ~inputs:toy.App.training_inputs in
  check_int "unknown trace maps to 0" 0 (Cfmodel.class_of_trace cf [ 9; 9; 9 ])

let test_signature_truncation () =
  let long = List.init 50 (fun i -> i) in
  check_int "truncated" Cfmodel.signature_length
    (List.length (Cfmodel.signature_of_trace long))

(* ------------------------------------------------------------- Training *)

let training_config =
  { Training.default_config with joint_samples_per_phase = 6 }

let dataset = lazy (Training.collect ~config:training_config toy ~n_phases:2)

let test_training_sample_count () =
  let t = Lazy.force dataset in
  (* per input, per phase: local sweeps (3 + 3 levels) + 6 joint *)
  let expected = Array.length toy.App.training_inputs * 2 * (6 + 6) in
  check_int "run count" expected (Training.n_runs t)

let test_training_samples_well_formed () =
  let t = Lazy.force dataset in
  Array.iter
    (fun (s : Training.sample) ->
      check_bool "phase in range" true (s.phase >= 0 && s.phase < 2);
      check_bool "qos nonnegative" true (s.qos >= 0.0);
      check_bool "speedup positive" true (s.speedup > 0.0);
      check_bool "iters ratio positive" true (s.iters_ratio > 0.0))
    t.Training.samples

let test_training_phase_filter () =
  let t = Lazy.force dataset in
  let p0 = Training.samples_of_phase t 0 and p1 = Training.samples_of_phase t 1 in
  check_int "split evenly" (Array.length t.Training.samples)
    (Array.length p0 + Array.length p1);
  Array.iter (fun (s : Training.sample) -> check_int "phase 0" 0 s.phase) p0

let test_training_local_samples () =
  let t = Lazy.force dataset in
  let locals = Training.local_samples t ~ab:0 ~phase:1 in
  check_bool "has locals" true (Array.length locals >= 3);
  Array.iter
    (fun (s : Training.sample) ->
      check_bool "only ab0 active" true (s.levels.(0) > 0 && s.levels.(1) = 0))
    locals

(* ------------------------------------------------------------------ Roi *)

let test_roi_positive () =
  let t = Lazy.force dataset in
  let roi = Roi.of_training t in
  check_int "per phase" 2 (Array.length roi);
  Array.iter (fun r -> check_bool "positive" true (r > 0.0)) roi

let test_roi_normalize () =
  let n = Roi.normalize [| 1.0; 3.0 |] in
  Alcotest.(check (array (float 1e-9))) "norm" [| 0.25; 0.75 |] n

let test_roi_normalize_zero () =
  Alcotest.(check (array (float 1e-9))) "uniform" [| 0.5; 0.5 |] (Roi.normalize [| 0.0; 0.0 |])

let test_roi_allocate () =
  let alloc = Roi.allocate ~roi:[| 1.0; 4.0 |] ~budget:10.0 in
  Alcotest.(check (array (float 1e-9))) "proportional" [| 2.0; 8.0 |] alloc;
  check_float_eps 1e-9 "sums to budget" 10.0 (Array.fold_left ( +. ) 0.0 alloc)

let test_roi_order () =
  Alcotest.(check (list int)) "descending" [ 2; 0; 1 ] (Roi.descending_order [| 5.0; 1.0; 9.0 |])

(* --------------------------------------------------------------- Phases *)

let test_phases_probe () =
  let p = Phases.probe ~samples_per_phase:4 toy ~n_phases:4 in
  check_int "phase count" 4 (Array.length p.Phases.mean_qos_per_phase);
  check_bool "diff nonnegative" true (p.Phases.max_consecutive_diff >= 0.0)

let test_phases_probe_single () =
  let p = Phases.probe ~samples_per_phase:4 toy ~n_phases:1 in
  check_float "no consecutive diff with one phase" 0.0 p.Phases.max_consecutive_diff

let test_phases_search_bounds () =
  let n, probes = Phases.search ~threshold:0.5 ~max_phases:8 ~samples_per_phase:4 toy in
  check_bool "within bounds" true (n >= 2 && n <= 8);
  check_bool "made probes" true (List.length probes >= 1)

let test_phases_search_high_threshold_stops_early () =
  let n, _ = Phases.search ~threshold:1e9 ~samples_per_phase:4 toy in
  check_int "stops at 2" 2 n

(* --------------------------------------------------------------- Models *)

let models = lazy (Models.build (Lazy.force dataset))

let test_models_zero_anchor () =
  let m = Lazy.force models in
  let p = Models.predict m ~input:toy.App.default_input ~phase:0 ~levels:[| 0; 0 |] in
  check_float "exact => qos 0" 0.0 p.Models.qos;
  check_float "exact => speedup 1" 1.0 p.Models.speedup;
  check_float "exact => qos_hi 0" 0.0 p.Models.qos_hi

let test_models_predictions_finite () =
  let m = Lazy.force models in
  List.iter
    (fun levels ->
      for phase = 0 to 1 do
        let p = Models.predict m ~input:toy.App.default_input ~phase ~levels in
        check_bool "finite speedup" true (Float.is_finite p.Models.speedup);
        check_bool "finite qos" true (Float.is_finite p.Models.qos);
        check_bool "qos nonnegative" true (p.Models.qos >= 0.0);
        check_bool "hi above point" true (p.Models.qos_hi >= p.Models.qos -. 1e-9);
        check_bool "lo below point" true (p.Models.speedup_lo <= p.Models.speedup +. 1e-9)
      done)
    [ [| 1; 0 |]; [| 0; 2 |]; [| 3; 3 |]; [| 2; 1 |] ]

let test_models_speedup_sane () =
  let m = Lazy.force models in
  let p = Models.predict m ~input:toy.App.default_input ~phase:0 ~levels:[| 3; 3 |] in
  (* The toy app's max speedup is well under 3x; a sane model stays in
     the ballpark. *)
  check_bool "plausible magnitude" true (p.Models.speedup > 0.8 && p.Models.speedup < 3.0)

let test_models_bad_phase () =
  let m = Lazy.force models in
  Alcotest.check_raises "phase" (Invalid_argument "Models.predict: bad phase") (fun () ->
      ignore (Models.predict m ~input:toy.App.default_input ~phase:7 ~levels:[| 0; 0 |]))

let test_models_predictor_matches_predict () =
  (* The hoisted per-input predictor must agree with [predict] on every
     field, bit-exactly, across phases and repeated calls (the scratch
     buffers it reuses must not leak state between queries). *)
  let m = Lazy.force models in
  let input = toy.App.default_input in
  let p = Models.predictor m ~input in
  for _pass = 1 to 2 do
    List.iter
      (fun levels ->
        for phase = 0 to 1 do
          let a = Models.predict m ~input ~phase ~levels in
          let b = p ~phase ~levels in
          check_float_eps 0.0 "speedup" a.Models.speedup b.Models.speedup;
          check_float_eps 0.0 "qos" a.Models.qos b.Models.qos;
          check_float_eps 0.0 "speedup_lo" a.Models.speedup_lo b.Models.speedup_lo;
          check_float_eps 0.0 "qos_hi" a.Models.qos_hi b.Models.qos_hi;
          check_float_eps 0.0 "iters_ratio" a.Models.iters_ratio b.Models.iters_ratio
        done)
      [ [| 0; 0 |]; [| 1; 0 |]; [| 0; 2 |]; [| 3; 3 |]; [| 2; 1 |] ]
  done

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_prediction (a : Models.prediction) (b : Models.prediction) =
  same_bits a.speedup b.speedup && same_bits a.qos b.qos && same_bits a.speedup_lo b.speedup_lo
  && same_bits a.qos_hi b.qos_hi && same_bits a.iters_ratio b.iters_ratio

let kmeans_fixture =
  lazy (Opprox.load ~resolve:Opprox_apps.Registry.find "fixtures/trained_kmeans.sexp")

(* (models, input) pairs the predictor properties run over: the toy
   models at their default input and the committed kmeans models at an
   input between their training points. *)
let predictor_cases () =
  [
    (Lazy.force models, toy.App.default_input);
    ((Lazy.force kmeans_fixture).Opprox.models, [| 350.0; 9.0; 3.0 |]);
  ]

let test_models_predictor_every_level () =
  (* Every level of every AB, one past [max_level] and one below zero
     (both outside the local tables), with the other ABs exact and at
     their maximum. *)
  List.iter
    (fun (m, input) ->
      let abs = (Models.app m).App.abs in
      let p = Models.predictor m ~input in
      for phase = 0 to Models.n_phases m - 1 do
        Array.iteri
          (fun ab (spec : Ab.t) ->
            for level = -1 to spec.max_level + 1 do
              List.iter
                (fun base ->
                  let levels = Array.copy base in
                  levels.(ab) <- level;
                  check_bool
                    (Printf.sprintf "phase %d AB %d level %d" phase ab level)
                    true
                    (same_prediction (Models.predict m ~input ~phase ~levels) (p ~phase ~levels)))
                [ Array.make (Array.length abs) 0; Array.map (fun (a : Ab.t) -> a.max_level) abs ]
            done)
          abs
      done)
    (predictor_cases ())

let prop_models_predictor_matches_predict =
  qcheck_case ~count:300 "predictor bit-identical to predict on joint configs"
    QCheck.(pair bool (pair small_nat (list_of_size (QCheck.Gen.return 4) small_nat)))
    (fun (use_kmeans, (phase_seed, level_seeds)) ->
      let m, input = List.nth (predictor_cases ()) (if use_kmeans then 1 else 0) in
      let abs = (Models.app m).App.abs in
      let phase = phase_seed mod Models.n_phases m in
      (* Levels range over [0, max_level + 1]: the table and one past it. *)
      let levels =
        Array.mapi (fun i (a : Ab.t) -> List.nth level_seeds i mod (a.max_level + 2)) abs
      in
      same_prediction (Models.predict m ~input ~phase ~levels)
        (Models.predictor m ~input ~phase ~levels))

let test_models_quality_reported () =
  let m = Lazy.force models in
  check_bool "speedup R2 high on deterministic toy" true (Models.speedup_r2 m > 0.7);
  check_bool "degree in range" true
    (Models.max_polynomial_degree m >= 1 && Models.max_polynomial_degree m <= 6)

(* ------------------------------------------------------------ Optimizer *)

let optimize ?search budget =
  let t = Lazy.force trained in
  Optimizer.optimize ?search ~models:t.Opprox.models ~roi:t.Opprox.roi
    ~input:toy.App.default_input ~budget ()

let test_optimizer_zero_budget () =
  let plan = optimize 0.0 in
  check_bool "all exact" true (Schedule.is_exact plan.Optimizer.schedule)

let test_optimizer_respects_predicted_budget () =
  List.iter
    (fun budget ->
      let plan = optimize budget in
      check_bool
        (Printf.sprintf "priced within budget %.1f" budget)
        true
        (plan.Optimizer.predicted_qos <= budget +. 1e-6))
    [ 1.0; 5.0; 10.0; 25.0 ]

let test_optimizer_monotone_in_budget () =
  let s b = (optimize b).Optimizer.predicted_speedup in
  check_bool "more budget, no less speedup" true (s 20.0 >= s 2.0 -. 1e-9)

let test_optimizer_uses_budget () =
  let plan = optimize 50.0 in
  check_bool "non-trivial plan under generous budget" true
    (not (Schedule.is_exact plan.Optimizer.schedule))

let test_optimizer_greedy_feasible () =
  let plan = optimize ~search:Optimizer.Greedy 10.0 in
  check_bool "greedy priced within budget" true (plan.Optimizer.predicted_qos <= 10.0 +. 1e-6)

let test_optimizer_greedy_close_to_enumerate () =
  let e = (optimize ~search:Optimizer.Enumerate 10.0).Optimizer.predicted_speedup in
  let g = (optimize ~search:Optimizer.Greedy 10.0).Optimizer.predicted_speedup in
  check_bool "greedy <= enumerate + eps" true (g <= e +. 1e-6);
  check_bool "greedy not far behind" true (g >= 1.0)

let test_optimizer_negative_budget () =
  (* Input validation now flows through Lint_plan: a negative budget is a
     PLAN001 diagnostic carried by Lint_error. *)
  match optimize (-1.0) with
  | _ -> Alcotest.fail "negative budget accepted"
  | exception Opprox_analysis.Diagnostic.Lint_error diags ->
      check_bool "PLAN001 fired" true
        (List.exists (fun (d : Opprox_analysis.Diagnostic.t) -> d.code = "PLAN001") diags)

let test_compose_speedup () =
  check_float_eps 1e-9 "identity" 1.0 (Optimizer.compose_speedup [| 1.0; 1.0 |]);
  (* one phase saving half of a quarter of the work: 1/(1-0.5) = 2 *)
  check_float_eps 1e-9 "single" 2.0 (Optimizer.compose_speedup [| 2.0 |]);
  check_bool "combination exceeds parts" true
    (Optimizer.compose_speedup [| 1.2; 1.2 |] > 1.2)

let test_optimizer_schedule_shape () =
  let plan = optimize 10.0 in
  check_int "schedule phases match models" 2
    (Schedule.n_phases plan.Optimizer.schedule);
  check_int "schedule ABs match app" (App.n_abs toy)
    (Schedule.n_abs plan.Optimizer.schedule)

let test_optimizer_choices_cover_phases () =
  let plan = optimize 10.0 in
  let phases = List.sort compare (List.map (fun (c : Optimizer.phase_choice) -> c.phase) plan.Optimizer.choices) in
  Alcotest.(check (list int)) "each phase chosen once" [ 0; 1 ] phases

(* ------------------------------------------------------------ plan pins *)

(* Plans recorded from the optimizer as it stood before per-phase Pareto
   staircases and tabulated local models replaced per-point enumeration
   (test/fixtures/plan_pins.sexp).  Every rewrite of the pricing path
   must choose byte-for-byte the same plan: each entry names its model,
   input, budget and first phase, and is re-solved here and compared as
   printed text.  One solver per (model, input) serves all of that
   input's budgets and its suffix solve, as the precompute grid and the
   controller reuse one. *)
let pin_models =
  lazy
    [
      ("toy", Lazy.force trained);
      ("kmeans", Lazy.force kmeans_fixture);
    ]

let pin_inputs = function
  | "toy" -> [ [| 1.5 |]; [| 1.25 |] ]
  | _ -> [ [| 400.0; 10.0; 3.0 |]; [| 350.0; 9.0; 3.0 |] ]

(* kmeans degrades QoS by tens of percent at its first levels, so its
   plans stay all-exact below 45 %; the wider budgets pin real choices. *)
let pin_budgets = function
  | "toy" -> [ 2.0; 5.0; 10.0; 15.0; 20.0; 30.0 ]
  | _ -> [ 2.0; 5.0; 10.0; 15.0; 20.0; 30.0; 45.0; 60.0; 80.0; 100.0 ]

let pin_suffix_budget = function "toy" -> 10.0 | _ -> 80.0

(* (model, input, budget, first_phase, printed plan) for every pinned case. *)
let pinned_plans ?search ?stochastic ~budgets ~suffix_budget () =
  List.concat_map
    (fun (name, (tr : Opprox.trained)) ->
      List.concat_map
        (fun input ->
          let solve =
            Optimizer.solver ?search ?stochastic ~models:tr.Opprox.models ~roi:tr.Opprox.roi
              ~input ()
          in
          let case ?(first_phase = 0) budget =
            (name, input, budget, first_phase,
             Opprox_util.Sexp.to_string (Optimizer.plan_to_sexp (solve ~first_phase ~budget ())))
          in
          List.map case (budgets name) @ [ case ~first_phase:1 (suffix_budget name) ])
        (pin_inputs name))
    (Lazy.force pin_models)

let check_pins file fresh =
  let module S = Opprox_util.Sexp in
  let pins = S.to_list (S.load file) in
  check_int "pinned case count" (List.length pins) (List.length fresh);
  List.iter2
    (fun pin (name, input, budget, first_phase, plan) ->
      let label =
        Printf.sprintf "%s input=%s budget=%g first_phase=%d" name
          (S.to_string (S.float_array input)) budget first_phase
      in
      Alcotest.(check string) (label ^ " model") (S.to_string_atom (S.field pin "model")) name;
      Alcotest.(check (array (float 0.0))) (label ^ " input") (S.to_float_array (S.field pin "input")) input;
      check_float_eps 0.0 (label ^ " budget") (S.to_float (S.field pin "budget")) budget;
      check_int (label ^ " first_phase") (S.to_int (S.field pin "first_phase")) first_phase;
      Alcotest.(check string) label (S.to_string (S.field pin "plan")) plan)
    pins fresh

let test_plans_match_pins () =
  check_pins "fixtures/plan_pins.sexp"
    (pinned_plans ~budgets:pin_budgets ~suffix_budget:pin_suffix_budget ())

(* The same pins for the forced stochastic strategy
   (test/fixtures/stochastic_pins.sexp), recorded before the search's
   memo key, incremental chain pricing and sparse monomials replaced
   whole-schedule re-pricing: short chains, so a few budgets per input
   stay fast, and each plan must still come out byte-for-byte. *)
let stochastic_pin_params = { Optimizer.chains = 2; iters = 300; seed = 0x5EED }

let stochastic_pin_budgets = function "toy" -> [ 5.0; 10.0; 20.0 ] | _ -> [ 45.0; 80.0; 100.0 ]

let stochastic_pinned_plans () =
  pinned_plans ~search:Optimizer.Stochastic ~stochastic:stochastic_pin_params
    ~budgets:stochastic_pin_budgets ~suffix_budget:pin_suffix_budget ()

let test_stochastic_plans_match_pins () =
  check_pins "fixtures/stochastic_pins.sexp" (stochastic_pinned_plans ())

(* The optimizer's former per-point rule over an explicit table: the
   first point of greatest [speedup_lo] among those whose [qos_hi] fits. *)
let reference_best table ~budget =
  let best = ref None in
  Array.iteri
    (fun k (p : Models.prediction) ->
      if p.qos_hi <= budget then
        match !best with
        | Some (_, (b : Models.prediction)) when b.speedup_lo >= p.speedup_lo -> ()
        | _ -> best := Some (k, p))
    table;
  !best

let prop_frontier_matches_reference =
  (* Values come from small pools so exact ties and equal [qos_hi] are
     common.  One table in five may hold non-finite values and one in
     eight lies entirely above every queried budget. *)
  let open QCheck.Gen in
  let non_finite = oneofl [ Float.nan; Float.infinity; Float.neg_infinity ] in
  let value pool lo hi ~wild =
    frequency ([ (4, oneofl pool); (4, float_range lo hi) ] @ if wild then [ (1, non_finite) ] else [])
  in
  let entry ~wild ~infeasible =
    let qos = if infeasible then float_range 100.0 200.0 else value [ 0.0; 1.0; 2.0; 2.5; 4.0 ] 0.0 10.0 ~wild in
    map2
      (fun qos_hi speedup_lo ->
        { Models.speedup = speedup_lo; qos = qos_hi; speedup_lo; qos_hi; iters_ratio = 1.0 })
      qos (value [ 1.0; 1.25; 1.5; 2.0 ] 0.5 3.0 ~wild)
  in
  let gen =
    int_range 0 39 >>= fun mode ->
    let wild = mode < 8 and infeasible = mode >= 35 in
    pair (array_size (int_range 1 40) (entry ~wild ~infeasible)) (list_repeat 8 (float_range (-1.0) 12.0))
  in
  qcheck_case ~count:400 "staircase query equals the per-point rule" (QCheck.make gen)
    (fun (table, budgets) ->
      let n = Array.length table in
      let in_order = ref true and next = ref 0 in
      let price k =
        (* The optimizer's odometer relies on this call order. *)
        if k <> !next && k <> 0 then in_order := false;
        next := k + 1;
        table.(k)
      in
      let f = Frontier.build ~n price in
      let budgets =
        budgets @ [ 0.0; Float.infinity; Float.neg_infinity ]
        @ Array.to_list (Array.map (fun (p : Models.prediction) -> p.qos_hi) table)
      in
      !in_order
      && List.for_all
           (fun budget ->
             match (Frontier.query f ~budget, reference_best table ~budget) with
             | None, None -> true
             | Some (k, p), Some (k', p') -> k = k' && p == p'
             | _ -> false)
           budgets)

let test_enumerate_solve_allocation () =
  (* One Enumerate solve, solver construction included, must allocate no
     block straight into the major heap (blocks over 256 words skip the
     minor heap).  A 4096-bucket memo table did: 4097 words per solve.
     [Gc.counters] reads this domain's counters, and the solves run here
     on the test's own domain. *)
  let tr = Lazy.force kmeans_fixture in
  let solve budget =
    Optimizer.optimize ~search:Optimizer.Enumerate ~models:tr.Opprox.models ~roi:tr.Opprox.roi
      ~input:[| 400.0; 10.0; 3.0 |] ~budget ()
  in
  ignore (solve 60.0);
  let n = 20 in
  let _, promoted0, major0 = Gc.counters () in
  for i = 1 to n do
    ignore (solve (5.0 *. float_of_int i))
  done;
  let _, promoted1, major1 = Gc.counters () in
  let direct = (major1 -. major0 -. (promoted1 -. promoted0)) /. float_of_int n in
  check_bool
    (Printf.sprintf "%.1f words per solve allocated straight into the major heap (bound 64)" direct)
    true (direct <= 64.0)

let prop_roi_allocation_nonnegative =
  qcheck_case "allocations stay nonnegative"
    QCheck.(pair (array_of_size (QCheck.Gen.int_range 1 6) (float_range 0.0 10.0)) (float_range 0.0 50.0))
    (fun (roi, budget) ->
      Array.for_all (fun a -> a >= 0.0) (Roi.allocate ~roi ~budget))

let prop_optimizer_feasible_on_random_budgets =
  qcheck_case ~count:20 "plans stay priced within budget" QCheck.(float_range 0.0 40.0)
    (fun budget ->
      let plan = optimize budget in
      plan.Optimizer.predicted_qos <= budget +. 1e-6)

(* --------------------------------------------------------------- Oracle *)

let test_oracle_zero_budget () =
  let r = Oracle.search toy ~input:toy.App.default_input ~budget:0.0 in
  Alcotest.(check (array int)) "exact config" [| 0; 0 |] r.Oracle.levels;
  check_float "no degradation" 0.0 r.Oracle.evaluation.Driver.qos_degradation

let test_oracle_respects_budget () =
  List.iter
    (fun budget ->
      let r = Oracle.search toy ~input:toy.App.default_input ~budget in
      check_bool "measured within budget" true
        (r.Oracle.evaluation.Driver.qos_degradation <= budget))
    [ 0.5; 2.0; 10.0 ]

let test_oracle_is_optimal () =
  (* Cross-check against a manual scan of the measured space. *)
  let budget = 5.0 in
  let r = Oracle.search toy ~input:toy.App.default_input ~budget in
  let space = Oracle.measured_space toy ~input:toy.App.default_input in
  List.iter
    (fun (_, (e : Driver.evaluation)) ->
      if e.qos_degradation <= budget then
        check_bool "no better feasible config" true
          (e.speedup <= r.Oracle.evaluation.Driver.speedup +. 1e-9))
    space

let test_oracle_space_size () =
  let space = Oracle.measured_space toy ~input:toy.App.default_input in
  check_int "full enumeration" 16 (List.length space)

let test_oracle_monotone_in_budget () =
  let s b = (Oracle.search toy ~input:toy.App.default_input ~budget:b).Oracle.evaluation.Driver.speedup in
  check_bool "monotone" true (s 20.0 >= s 1.0)

(* -------------------------------------------------------------- Facade *)

let test_train_end_to_end () =
  let t = Lazy.force trained in
  check_int "two phases" 2 t.Opprox.training.Training.n_phases;
  check_int "roi arity" 2 (Array.length t.Opprox.roi)

let test_facade_optimize_apply () =
  let t = Lazy.force trained in
  let plan = Opprox.optimize t ~budget:10.0 in
  let outcome = Opprox.apply t plan in
  check_bool "speedup at least 1" true (outcome.Driver.speedup >= 0.99);
  check_bool "measured degradation bounded" true (outcome.Driver.qos_degradation < 60.0)

let test_facade_phase_search_mode () =
  let config =
    {
      Opprox.default_train_config with
      n_phases = None;
      training = { training_config with joint_samples_per_phase = 4 };
    }
  in
  let t = Opprox.train ~config toy in
  check_bool "searched phases recorded" true (List.length t.Opprox.phase_probes >= 1);
  check_bool "phase count sane" true
    (t.Opprox.training.Training.n_phases >= 2 && t.Opprox.training.Training.n_phases <= 4)

let test_run_oracle_facade () =
  let r = Opprox.run_oracle toy ~budget:5.0 in
  check_bool "within budget" true (r.Oracle.evaluation.Driver.qos_degradation <= 5.0)

(* ---------------------------------------------------------- determinism *)

let test_training_deterministic () =
  Driver.clear_cache ();
  let a = Training.collect ~config:training_config toy ~n_phases:2 in
  Driver.clear_cache ();
  let b = Training.collect ~config:training_config toy ~n_phases:2 in
  check_int "same run count" (Training.n_runs a) (Training.n_runs b);
  Array.iteri
    (fun i (sa : Training.sample) ->
      let sb = b.Training.samples.(i) in
      check_float "same qos" sa.qos sb.qos;
      check_float "same speedup" sa.speedup sb.speedup)
    a.Training.samples

let test_pipeline_deterministic () =
  (* Two independent end-to-end runs produce the same plan. *)
  let build () =
    let t =
      Opprox.train ~config:{ Opprox.default_train_config with n_phases = Some 2 } toy
    in
    Opprox.optimize t ~budget:10.0
  in
  let p1 = build () and p2 = build () in
  check_bool "identical schedules" true
    (Schedule.equal p1.Optimizer.schedule p2.Optimizer.schedule);
  check_float "identical predicted speedup" p1.Optimizer.predicted_speedup
    p2.Optimizer.predicted_speedup

let test_phases_probe_deterministic () =
  let a = Phases.probe ~samples_per_phase:4 toy ~n_phases:4 in
  let b = Phases.probe ~samples_per_phase:4 toy ~n_phases:4 in
  Alcotest.(check (array (float 1e-12))) "same means" a.Phases.mean_qos_per_phase
    b.Phases.mean_qos_per_phase

let test_huge_budget_goes_aggressive () =
  let t = Lazy.force trained in
  let plan =
    Optimizer.optimize ~models:t.Opprox.models ~roi:t.Opprox.roi
      ~input:toy.App.default_input ~budget:1e6 ()
  in
  (* With an unconstrained budget the optimizer should pick nontrivial
     levels in at least one phase. *)
  check_bool "non-exact plan" true (not (Schedule.is_exact plan.Optimizer.schedule))

let suite =
  [
    ( "cfmodel",
      [
        Alcotest.test_case "flow classes" `Quick test_cfmodel_flow_classes;
        Alcotest.test_case "single class" `Quick test_cfmodel_single_class;
        Alcotest.test_case "unseen trace" `Quick test_cfmodel_unseen_trace;
        Alcotest.test_case "signature truncation" `Quick test_signature_truncation;
      ] );
    ( "training",
      [
        Alcotest.test_case "sample count" `Quick test_training_sample_count;
        Alcotest.test_case "samples well-formed" `Quick test_training_samples_well_formed;
        Alcotest.test_case "phase filter" `Quick test_training_phase_filter;
        Alcotest.test_case "local samples" `Quick test_training_local_samples;
      ] );
    ( "roi",
      [
        Alcotest.test_case "positive" `Quick test_roi_positive;
        Alcotest.test_case "normalize" `Quick test_roi_normalize;
        Alcotest.test_case "normalize zero" `Quick test_roi_normalize_zero;
        Alcotest.test_case "allocate" `Quick test_roi_allocate;
        Alcotest.test_case "descending order" `Quick test_roi_order;
      ] );
    ( "phases",
      [
        Alcotest.test_case "probe" `Quick test_phases_probe;
        Alcotest.test_case "probe single" `Quick test_phases_probe_single;
        Alcotest.test_case "search bounds" `Quick test_phases_search_bounds;
        Alcotest.test_case "high threshold stops" `Quick test_phases_search_high_threshold_stops_early;
      ] );
    ( "models",
      [
        Alcotest.test_case "zero anchor" `Quick test_models_zero_anchor;
        Alcotest.test_case "predictions finite" `Quick test_models_predictions_finite;
        Alcotest.test_case "speedup sane" `Quick test_models_speedup_sane;
        Alcotest.test_case "bad phase" `Quick test_models_bad_phase;
        Alcotest.test_case "predictor matches predict" `Quick test_models_predictor_matches_predict;
        Alcotest.test_case "predictor at every level" `Quick test_models_predictor_every_level;
        prop_models_predictor_matches_predict;
        Alcotest.test_case "quality reported" `Quick test_models_quality_reported;
      ] );
    ( "optimizer",
      [
        Alcotest.test_case "zero budget" `Quick test_optimizer_zero_budget;
        Alcotest.test_case "respects predicted budget" `Quick test_optimizer_respects_predicted_budget;
        Alcotest.test_case "monotone in budget" `Quick test_optimizer_monotone_in_budget;
        Alcotest.test_case "uses generous budget" `Quick test_optimizer_uses_budget;
        Alcotest.test_case "greedy feasible" `Quick test_optimizer_greedy_feasible;
        Alcotest.test_case "greedy vs enumerate" `Quick test_optimizer_greedy_close_to_enumerate;
        Alcotest.test_case "negative budget" `Quick test_optimizer_negative_budget;
        Alcotest.test_case "compose speedup" `Quick test_compose_speedup;
        Alcotest.test_case "schedule shape" `Quick test_optimizer_schedule_shape;
        Alcotest.test_case "choices cover phases" `Quick test_optimizer_choices_cover_phases;
        Alcotest.test_case "plans match pins" `Quick test_plans_match_pins;
        Alcotest.test_case "stochastic plans match pins" `Quick test_stochastic_plans_match_pins;
        Alcotest.test_case "enumerate solve allocation" `Quick test_enumerate_solve_allocation;
        prop_frontier_matches_reference;
        prop_roi_allocation_nonnegative;
        prop_optimizer_feasible_on_random_budgets;
      ] );
    ( "oracle",
      [
        Alcotest.test_case "zero budget" `Quick test_oracle_zero_budget;
        Alcotest.test_case "respects budget" `Quick test_oracle_respects_budget;
        Alcotest.test_case "is optimal" `Quick test_oracle_is_optimal;
        Alcotest.test_case "space size" `Quick test_oracle_space_size;
        Alcotest.test_case "monotone in budget" `Quick test_oracle_monotone_in_budget;
      ] );
    ( "determinism",
      [
        Alcotest.test_case "training" `Quick test_training_deterministic;
        Alcotest.test_case "pipeline" `Quick test_pipeline_deterministic;
        Alcotest.test_case "phase probe" `Quick test_phases_probe_deterministic;
        Alcotest.test_case "huge budget aggressive" `Quick test_huge_budget_goes_aggressive;
      ] );
    ( "facade",
      [
        Alcotest.test_case "train end-to-end" `Quick test_train_end_to_end;
        Alcotest.test_case "optimize + apply" `Quick test_facade_optimize_apply;
        Alcotest.test_case "phase-search mode" `Quick test_facade_phase_search_mode;
        Alcotest.test_case "oracle facade" `Quick test_run_oracle_facade;
      ] );
  ]
