(* The offline pipeline every workload starts from: train a fixed set of
   applications, then sweep a plan corpus over a budget grid.  Training
   is scaled down (a few training inputs, few joint samples) so that one
   pass fits in seconds; the computation and the code path are the real
   ones. *)

module App = Opprox_sim.App
module Driver = Opprox_sim.Driver
module Precompute = Opprox_corpus.Precompute

type spec = {
  name : string;
  phases : int option;  (** [None]: Algorithm-1 phase search *)
  inputs : float array list;  (** training inputs; the first is the default *)
  joint : int;
}

let registered name = Opprox_apps.Registry.find name

let first_inputs name k =
  let app = registered name in
  let rest =
    Array.to_list app.App.training_inputs
    |> List.filter (fun i -> i <> app.App.default_input)
    |> List.filteri (fun j _ -> j < k)
  in
  app.App.default_input :: rest

(* Enumeration apps: one goes through the Algorithm-1 phase search, the
   rest use forced phase counts. *)
let enumeration =
  [
    { name = "kmeans"; phases = None; inputs = first_inputs "kmeans" 2; joint = 3 };
    { name = "comd"; phases = Some 2; inputs = first_inputs "comd" 2; joint = 3 };
    { name = "lulesh"; phases = Some 2; inputs = first_inputs "lulesh" 2; joint = 3 };
    { name = "bodytrack"; phases = Some 2; inputs = first_inputs "bodytrack" 2; joint = 3 };
  ]

(* The 13-AB transformer (9^13 joint configs) is planned by the
   stochastic search; trained on one small input. *)
let transformer_input = [| 32.0; 12.0; 8.0 |]
let transformer = { name = "transformer"; phases = Some 2; inputs = [ transformer_input ]; joint = 3 }

(* Apps in equal proportions: a seeded shuffle of a deck that holds each
   enumeration app once, dealt in order and reshuffled when empty, so
   every run carries the same mix and only the inputs vary with the seed.
   Equal shares are an assumption; no measured job mix backs another. *)
let app_deck rng =
  let slots = Array.of_list (List.map (fun (s : spec) -> s.name) enumeration) in
  let next = ref (Array.length slots) in
  fun () ->
    if !next = Array.length slots then begin
      Opprox_util.Rng.shuffle rng slots;
      next := 0
    end;
    incr next;
    slots.(!next - 1)

let budget_grid = [| 2.0; 5.0; 10.0; 15.0; 20.0; 30.0 |]

let app_of spec =
  let inputs = Array.of_list spec.inputs in
  App.with_training_inputs (registered spec.name) ~default_input:inputs.(0)
    ~training_inputs:inputs

let config_of spec =
  {
    Opprox.default_train_config with
    n_phases = spec.phases;
    training = { Opprox.Training.default_config with joint_samples_per_phase = spec.joint };
  }

let train spec = Opprox.train ~config:(config_of spec) (app_of spec)

(* What [Opprox.train] does, one public call at a time, each in a span. *)
let train_decomposed sp spec =
  let app = app_of spec and config = config_of spec in
  let span name f = Spans.span sp name ~req:(-1) f in
  let n_phases, phase_probes =
    match config.Opprox.n_phases with
    | Some n -> (n, [])
    | None ->
        span "phases.probe" (fun () ->
            Opprox.Phases.search ~threshold:config.Opprox.phase_threshold
              ~max_phases:config.Opprox.max_phases app)
  in
  let training =
    span "training.collect" (fun () ->
        Opprox.Training.collect ~config:config.Opprox.training app ~n_phases)
  in
  let models = span "models.build" (fun () -> Opprox.Models.build ~config:config.Opprox.model training) in
  let roi = Opprox.Roi.of_training training in
  { Opprox.app; training; models; roi; phase_probes }

let corpus_inputs (tr : Opprox.trained) =
  if tr.Opprox.app.App.name = transformer.name then [] else Precompute.inputs_of tr

let sweep pipelines = Precompute.sweep ~inputs:corpus_inputs ~budgets:budget_grid pipelines

let load path = Opprox.load ~resolve:Opprox_apps.Registry.find path

(* A seeded perturbation of an input vector: every component scaled by a
   factor in [lo, hi]. *)
let perturb rng ~lo ~hi input = Array.map (fun x -> x *. Opprox_util.Rng.range rng lo hi) input

(* Points spread evenly over the unit cube [0, 1)^d: the additive
   recurrence R_d (Roberts, 2018), whose k-th point is frac(u + k a)
   component-wise, with a_j = g^-(j+1) and g the root of x^(d+1) = x + 1.
   The start u is seeded.  Independent draws let a run's mean cost swing
   with a few extreme inputs; these cover every range alike in every
   run. *)
let spread rng d =
  let g = ref 2.0 in
  for _ = 1 to 60 do
    g := (1.0 +. !g) ** (1.0 /. float_of_int (d + 1))
  done;
  let a = Array.init d (fun j -> Float.rem ((1.0 /. !g) ** float_of_int (j + 1)) 1.0) in
  let u = Array.init d (fun _ -> Opprox_util.Rng.uniform rng) in
  let k = ref 0 in
  fun () ->
    incr k;
    Array.mapi (fun j aj -> Float.rem (u.(j) +. (float_of_int !k *. aj)) 1.0) a

let scale ~lo ~hi u = lo +. (u *. (hi -. lo))

(* Achieved plan quality: apply each plan to its input and measure. *)
type quality = { speedups : float array; violations : int; cells : int }

let apply_all (cells : (Opprox.trained * float array * Opprox.Optimizer.plan) array) =
  let evs =
    Opprox_util.Pool.parallel_map
      (fun (tr, input, plan) ->
        let ev = Opprox.apply ~input tr plan in
        (ev.Driver.speedup, ev.Driver.qos_degradation > plan.Opprox.Optimizer.budget +. 1e-9))
      cells
  in
  {
    speedups = Array.map fst evs;
    violations = Array.fold_left (fun n (_, v) -> if v then n + 1 else n) 0 evs;
    cells = Array.length cells;
  }

let gmean q = Opprox_util.Stats.geometric_mean q.speedups
let violation_frac q = float_of_int q.violations /. float_of_int (max 1 q.cells)
