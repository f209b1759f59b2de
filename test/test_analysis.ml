(* Tests for the static-analysis subsystem: the diagnostic type, the four
   rule modules, the checker aggregation, the fail-fast wiring in
   Models/Optimizer/Opprox.apply, and the Dmutex debug lock discipline.
   Corruption tests work the way the real failure does: serialize a good
   artifact, damage the sexp, reload, and watch the exact rule fire. *)

module App = Opprox_sim.App
module Ab = Opprox_sim.Ab
module Schedule = Opprox_sim.Schedule
module Sexp = Opprox_util.Sexp
module Dmutex = Opprox_util.Dmutex
module Models = Opprox.Models
module Optimizer = Opprox.Optimizer
module Diagnostic = Opprox_analysis.Diagnostic
module Lint_app = Opprox_analysis.Lint_app
module Lint_schedule = Opprox_analysis.Lint_schedule
module Lint_models = Opprox_analysis.Lint_models
module Lint_plan = Opprox_analysis.Lint_plan
module Checker = Opprox_analysis.Checker
open Fixtures

let trained =
  lazy (Opprox.train ~config:{ Opprox.default_train_config with n_phases = Some 2 } toy)

let codes diags = List.map (fun (d : Diagnostic.t) -> d.code) diags
let has_code c diags = List.mem c (codes diags)

let check_clean_strict what diags =
  if Diagnostic.exit_code ~strict:true diags <> 0 then
    Alcotest.failf "%s not clean: %s" what
      (String.concat "; "
         (List.map (Format.asprintf "%a" Diagnostic.pp)
            (List.filter (Diagnostic.is_failure ~strict:true) diags)))

(* ----------------------------------------------------------- Diagnostic *)

let test_exit_code_policy () =
  let err = Diagnostic.v ~code:"APP002" Diagnostic.Error "e" in
  let warn = Diagnostic.v ~code:"APP004" Diagnostic.Warning "w" in
  let info = Diagnostic.v ~code:"SCHED006" Diagnostic.Info "i" in
  check_int "clean" 0 (Diagnostic.exit_code ~strict:false []);
  check_int "info passes strict" 0 (Diagnostic.exit_code ~strict:true [ info ]);
  check_int "warning passes lax" 0 (Diagnostic.exit_code ~strict:false [ warn; info ]);
  check_int "warning fails strict" 1 (Diagnostic.exit_code ~strict:true [ warn ]);
  check_int "error fails lax" 1 (Diagnostic.exit_code ~strict:false [ err; info ])

let test_codes_registered () =
  (* Every code the rules can emit must be in the documented registry. *)
  List.iter
    (fun prefix ->
      check_bool (prefix ^ " family present") true
        (List.exists (fun (c, _) -> String.length c > 4 && String.sub c 0 (String.length prefix) = prefix)
           Diagnostic.codes))
    [ "APP"; "SCHED"; "MODEL"; "PLAN" ]

(* ------------------------------------------------------------- Lint_app *)

let test_registered_apps_clean () =
  List.iter
    (fun (app : App.t) -> check_clean_strict app.App.name (Lint_app.check_app app))
    (Opprox_apps.Registry.all ());
  check_clean_strict "registry" (Lint_app.check_registry (Opprox_apps.Registry.all ()))

let test_saturated_space_is_app004 () =
  (* 9^21 configurations: a wrapped count read negative and skipped the
     rule; the saturated one is past the enumeration bound. *)
  let codes = List.map (fun (d : Diagnostic.t) -> d.Diagnostic.code) (Lint_app.check_app wide) in
  check_bool "APP004 reported" true (List.mem "APP004" codes);
  check_bool "no APP003" false (List.mem "APP003" codes)

let test_levelless_ab_is_app003 () =
  (* [Ab.make] refuses [max_level < 1], but [Ab.t] is a plain record: a
     literal with no levels at all makes the space empty.  The lint must
     report it rather than raise while counting. *)
  let abs = [| toy_abs.(0); { (toy_abs.(1)) with Ab.max_level = -1 } |] in
  let app =
    App.make ~name:"levelless" ~description:"AB without levels" ~param_names:[| "scale" |] ~abs
      ~default_input:[| 1.5 |] ~training_inputs:toy_inputs ~run:toy_run ~seed:7 ()
  in
  let codes = codes (Lint_app.check_app app) in
  check_bool "APP002 reported" true (List.mem "APP002" codes);
  check_bool "APP003 reported" true (List.mem "APP003" codes)

let test_registry_rejects_duplicates () =
  match Opprox_apps.Registry.register Opprox_apps.Kmeans.app with
  | () -> Alcotest.fail "duplicate registration accepted"
  | exception Invalid_argument _ -> ()

let test_ab_equal () =
  let a = Ab.make ~name:"x" ~technique:Ab.Perforation ~max_level:3 in
  check_bool "equal" true (Ab.equal a a);
  check_bool "differs" false
    (Ab.equal a (Ab.make ~name:"x" ~technique:Ab.Perforation ~max_level:4))

(* -------------------------------------------------------- Lint_schedule *)

let valid_levels_gen =
  QCheck.Gen.(
    let* n_phases = 1 -- 4 in
    let levels_for ab = 0 -- toy_abs.(ab).Ab.max_level in
    let* rows =
      list_repeat n_phases (let* a = levels_for 0 in let* b = levels_for 1 in return [| a; b |])
    in
    return (Array.of_list rows))

let prop_valid_schedule_lints_clean =
  qcheck_case "valid schedule lints clean" ~count:200
    (QCheck.make valid_levels_gen)
    (fun levels ->
      Lint_schedule.check_raw ~app:"toy" levels = []
      &&
      let sched = Schedule.make levels in
      Diagnostic.exit_code ~strict:true
        (Lint_schedule.check ~app:"toy" ~n_phases:(Array.length levels) ~abs:toy_abs sched)
      = 0)

let test_schedule_corrupt_ragged () =
  (* Ragged matrices can't even become a Schedule.t; check_raw is the
     pre-construction audit with coordinates. *)
  let diags = Lint_schedule.check_raw ~app:"toy" [| [| 1; 2 |]; [| 1 |] |] in
  check_bool "SCHED001 fired" true (has_code "SCHED001" diags);
  check_int "ragged is an error" 1 (Diagnostic.exit_code ~strict:false diags)

let test_schedule_corrupt_level_range () =
  let sched = Schedule.make [| [| 1; 99 |] |] in
  let diags = Lint_schedule.check ~app:"toy" ~abs:toy_abs sched in
  check_bool "SCHED003 fired" true (has_code "SCHED003" diags);
  (match List.find (fun (d : Diagnostic.t) -> d.code = "SCHED003") diags with
  | d ->
      check_bool "locates phase" true (d.location.phase = Some 0);
      check_bool "locates ab" true (d.location.ab = Some 1));
  check_int "out of range is an error" 1 (Diagnostic.exit_code ~strict:false diags)

let test_schedule_shape_mismatch () =
  let sched = Schedule.make [| [| 1 |] |] in
  let diags = Lint_schedule.check ~app:"toy" ~n_phases:2 ~abs:toy_abs sched in
  check_bool "SCHED004 fired" true (has_code "SCHED004" diags)

let test_schedule_dead_knob_is_info () =
  let sched = Schedule.make [| [| 1; 0 |]; [| 2; 0 |] |] in
  let diags = Lint_schedule.check ~app:"toy" ~abs:toy_abs sched in
  check_bool "SCHED006 fired" true (has_code "SCHED006" diags);
  check_int "but stays informational" 0 (Diagnostic.exit_code ~strict:true diags)

let test_schedule_sexp_roundtrip () =
  let sched = Schedule.make [| [| 1; 2 |]; [| 0; 3 |] |] in
  check_bool "roundtrip" true (Schedule.equal sched (Schedule.of_sexp (Schedule.to_sexp sched)))

(* ---------------------------------------------------------- Lint_models *)

let test_trained_models_lint_clean () =
  let tr = Lazy.force trained in
  check_clean_strict "trained toy models" (Models.lint tr.Opprox.models)

(* Rewrite every record field called [name] anywhere in a sexp tree. *)
let rec rewrite_field name f = function
  | Sexp.List [ Sexp.Atom n; v ] when n = name -> Sexp.List [ Sexp.Atom n; f v ]
  | Sexp.List items -> Sexp.List (List.map (rewrite_field name f) items)
  | atom -> atom

let reload sexp = Models.of_sexp ~strict:false ~resolve:(fun _ -> toy) sexp

let test_models_corrupt_nan_coefficient () =
  let sexp = Models.to_sexp (Lazy.force trained).Opprox.models in
  let corrupt =
    rewrite_field "weights"
      (fun v ->
        let w = Sexp.to_float_array v in
        if Array.length w > 0 then w.(0) <- Float.nan;
        Sexp.float_array w)
      sexp
  in
  let diags = Models.lint (reload corrupt) in
  check_bool "MODEL001 fired" true (has_code "MODEL001" diags);
  check_int "NaN coefficient is an error" 1 (Diagnostic.exit_code ~strict:false diags);
  (* Strict loading refuses the artifact outright. *)
  match Models.of_sexp ~strict:true ~resolve:(fun _ -> toy) corrupt with
  | _ -> Alcotest.fail "strict load accepted NaN coefficients"
  | exception Diagnostic.Lint_error diags ->
      check_bool "raised with MODEL001" true (has_code "MODEL001" diags)

let test_models_corrupt_inverted_ci () =
  let sexp = Models.to_sexp (Lazy.force trained).Opprox.models in
  let corrupt = rewrite_field "qos_ci" (fun _ -> Sexp.float (-0.5)) sexp in
  let diags = Models.lint (reload corrupt) in
  check_bool "MODEL003 fired" true (has_code "MODEL003" diags);
  check_int "inverted CI is an error" 1 (Diagnostic.exit_code ~strict:false diags);
  match Models.of_sexp ~strict:true ~resolve:(fun _ -> toy) corrupt with
  | _ -> Alcotest.fail "strict load accepted an inverted CI"
  | exception Diagnostic.Lint_error diags ->
      check_bool "raised with MODEL003" true (has_code "MODEL003" diags)

let test_models_sexp_roundtrip_keeps_rdiag () =
  (* The conditioning evidence must survive a save/load cycle, or the
     checker would go blind on exactly the artifacts it audits. *)
  let m = (Lazy.force trained).Opprox.models in
  let reloaded = reload (Models.to_sexp m) in
  let n_rdiag model =
    List.fold_left
      (fun acc pv ->
        List.fold_left
          (fun acc (r : Lint_models.regression) ->
            List.fold_left (fun acc (_, _, rd) -> acc + Array.length rd) acc r.pieces)
          acc pv.Lint_models.regressions)
      0
      (Array.to_list (Models.view model).Lint_models.per_class.(0))
  in
  check_bool "some R diagonals recorded" true (n_rdiag m > 0);
  check_int "survives roundtrip" (n_rdiag m) (n_rdiag reloaded)

(* ------------------------------------------------------------ Lint_plan *)

let test_optimizer_rejects_bad_inputs () =
  let tr = Lazy.force trained in
  let opt ~roi ~budget =
    Optimizer.optimize ~models:tr.Opprox.models ~roi ~input:toy.App.default_input ~budget ()
  in
  (match opt ~roi:tr.Opprox.roi ~budget:Float.nan with
  | _ -> Alcotest.fail "NaN budget accepted"
  | exception Diagnostic.Lint_error d -> check_bool "PLAN001" true (has_code "PLAN001" d));
  match opt ~roi:[| 1.0 |] ~budget:5.0 with
  | _ -> Alcotest.fail "short ROI accepted"
  | exception Diagnostic.Lint_error d -> check_bool "PLAN002" true (has_code "PLAN002" d)

let test_plan_lint_clean () =
  let tr = Lazy.force trained in
  let plan = Opprox.optimize tr ~budget:10.0 in
  check_clean_strict "optimizer plan" (Optimizer.lint ~models:tr.Opprox.models plan)

let test_apply_rejects_out_of_range_schedule () =
  (* A plan doctored after optimization: the schedule asks for levels the
     ABs do not have.  [apply] must refuse it up front via Lint_plan. *)
  let tr = Lazy.force trained in
  let plan = Opprox.optimize tr ~budget:10.0 in
  let doctored =
    { plan with Optimizer.schedule = Schedule.uniform ~n_phases:2 [| 99; 99 |] }
  in
  match Opprox.apply tr doctored with
  | _ -> Alcotest.fail "out-of-range schedule executed"
  | exception Diagnostic.Lint_error diags ->
      check_bool "SCHED003 fired" true (has_code "SCHED003" diags)

let test_plan_negative_sub_budget () =
  let diags =
    Lint_plan.check_plan
      {
        Lint_plan.app_name = "toy";
        abs = toy_abs;
        n_phases = 1;
        budget = 1.0;
        choices =
          [ { Lint_plan.phase = 0; levels = [| 1; 0 |]; sub_budget = -0.5; qos_hi = 0.0 } ];
        schedule = Schedule.make [| [| 1; 0 |] |];
      }
  in
  check_bool "PLAN004 fired" true (has_code "PLAN004" diags)

(* -------------------------------------------------------------- Checker *)

let test_checker_disable_and_report () =
  let c = Checker.create ~disabled:[ "SCHED006"; "MODEL" ] () in
  Checker.add c
    [
      Diagnostic.v ~code:"SCHED006" Diagnostic.Info "dead knob";
      Diagnostic.v ~code:"MODEL001" Diagnostic.Error "nan";
      Diagnostic.v ~code:"APP002" Diagnostic.Error "bad range";
    ];
  check_int "only APP002 retained" 1 (List.length (Checker.diagnostics c));
  check_int "exit code reflects retained" 1 (Checker.exit_code ~strict:false c)

let test_checker_rejects_unknown_selector () =
  match Checker.create ~disabled:[ "BOGUS42" ] () with
  | _ -> Alcotest.fail "unknown selector accepted"
  | exception Invalid_argument _ -> ()

(* --------------------------------------------------------------- Dmutex *)

let test_dmutex_reentrant_detected () =
  let was = Dmutex.checking () in
  Opprox_util.Conc.reset ();
  Dmutex.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      (* The deliberate reentrancy above recorded a CONC003 report; drop
         it so the suite-wide report-clean check sees only real leaks. *)
      Opprox_util.Conc.reset ();
      Dmutex.set_enabled was)
    (fun () ->
      let m = Dmutex.create () in
      Dmutex.lock m;
      (match Dmutex.lock m with
      | () -> Alcotest.fail "reentrant lock not detected"
      | exception Failure msg ->
          check_bool "names the defect" true
            (String.length msg > 0
            && String.sub msg 0 (String.length "Dmutex.lock") = "Dmutex.lock"));
      Dmutex.unlock m;
      (* After release the same domain may take it again. *)
      Dmutex.lock m;
      Dmutex.unlock m)

let test_dmutex_disabled_is_plain () =
  let was = Dmutex.checking () in
  Dmutex.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Dmutex.set_enabled was)
    (fun () ->
      let m = Dmutex.create () in
      Dmutex.lock m;
      Dmutex.unlock m;
      Dmutex.lock m;
      Dmutex.unlock m)

let suite =
  [
    ( "analysis",
      [
        Alcotest.test_case "exit-code policy" `Quick test_exit_code_policy;
        Alcotest.test_case "code registry covers families" `Quick test_codes_registered;
        Alcotest.test_case "registered apps lint clean" `Quick test_registered_apps_clean;
        Alcotest.test_case "saturated space is APP004" `Quick test_saturated_space_is_app004;
        Alcotest.test_case "levelless AB is APP003" `Quick test_levelless_ab_is_app003;
        Alcotest.test_case "registry rejects duplicates" `Quick test_registry_rejects_duplicates;
        Alcotest.test_case "Ab.equal" `Quick test_ab_equal;
        prop_valid_schedule_lints_clean;
        Alcotest.test_case "corrupt: ragged schedule" `Quick test_schedule_corrupt_ragged;
        Alcotest.test_case "corrupt: level out of range" `Quick test_schedule_corrupt_level_range;
        Alcotest.test_case "schedule shape mismatch" `Quick test_schedule_shape_mismatch;
        Alcotest.test_case "dead knob is Info" `Quick test_schedule_dead_knob_is_info;
        Alcotest.test_case "schedule sexp roundtrip" `Quick test_schedule_sexp_roundtrip;
        Alcotest.test_case "trained models lint clean" `Slow test_trained_models_lint_clean;
        Alcotest.test_case "corrupt: NaN coefficient" `Slow test_models_corrupt_nan_coefficient;
        Alcotest.test_case "corrupt: inverted CI" `Slow test_models_corrupt_inverted_ci;
        Alcotest.test_case "r_diag survives roundtrip" `Slow test_models_sexp_roundtrip_keeps_rdiag;
        Alcotest.test_case "optimizer rejects bad inputs" `Slow test_optimizer_rejects_bad_inputs;
        Alcotest.test_case "optimizer plan lints clean" `Slow test_plan_lint_clean;
        Alcotest.test_case "apply rejects doctored schedule" `Slow
          test_apply_rejects_out_of_range_schedule;
        Alcotest.test_case "negative sub-budget" `Quick test_plan_negative_sub_budget;
        Alcotest.test_case "checker disable + exit code" `Quick test_checker_disable_and_report;
        Alcotest.test_case "checker rejects unknown selector" `Quick
          test_checker_rejects_unknown_selector;
        Alcotest.test_case "dmutex reentrant detected" `Quick test_dmutex_reentrant_detected;
        Alcotest.test_case "dmutex disabled is plain" `Quick test_dmutex_disabled_is_plain;
      ] );
  ]
