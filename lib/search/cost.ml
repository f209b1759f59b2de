module Models = Opprox.Models
module Optimizer = Opprox.Optimizer
module App = Opprox_sim.App
module Config_memo = Opprox_sim.Config_memo

type eval = {
  cost : float;
  speedup : float;
  speedup_lo : float;
  qos_hi : float;
  feasible : bool;
}

type t = {
  predict_compiled : phase:int -> levels:int array -> Models.prediction;
  memo : Models.prediction Config_memo.t;
  budget : float;
  n_phases : int;
  abs : Opprox_sim.Ab.t array;
  (* Scratch for the composed speedups: one [t] serves one chain. *)
  speedups : float array;
  speedups_lo : float array;
  mutable hits : int;
  mutable misses : int;
}

let penalty = 10.0

(* Same slack as Lint_plan/Lint_search: budgets are percent-scale. *)
let feasibility_eps budget = 1e-6 *. Float.max 1.0 (Float.abs budget)

let make ~models ~input ~budget =
  let n_phases = Models.n_phases models in
  let abs = (Models.app models).App.abs in
  {
    predict_compiled = Models.predictor models ~input;
    memo = Config_memo.create abs ~n_phases;
    budget;
    n_phases;
    abs;
    speedups = Array.make n_phases 0.0;
    speedups_lo = Array.make n_phases 0.0;
    hits = 0;
    misses = 0;
  }

let predict t ~phase ~levels =
  match Config_memo.find t.memo ~phase ~levels with
  | p ->
      t.hits <- t.hits + 1;
      p
  | exception Not_found ->
      t.misses <- t.misses + 1;
      let p = t.predict_compiled ~phase ~levels in
      Config_memo.add t.memo ~phase ~levels p;
      p

(* The summation order is part of the contract: conservative QoS summed
   from the last phase down, speedups composed in phase order.  Plans
   are pinned byte-for-byte, and a different order moves the last bits. *)
let eval t sched =
  let qos = ref 0.0 in
  for phase = t.n_phases - 1 downto 0 do
    let p = predict t ~phase ~levels:sched.(phase) in
    t.speedups.(phase) <- p.Models.speedup;
    t.speedups_lo.(phase) <- p.Models.speedup_lo;
    qos := !qos +. Float.max 0.0 p.Models.qos_hi
  done;
  let speedup = Optimizer.compose_speedup t.speedups in
  let speedup_lo = Optimizer.compose_speedup t.speedups_lo in
  let overrun = Float.max 0.0 (!qos -. t.budget) in
  {
    cost = (-.speedup_lo) +. (penalty *. overrun);
    speedup;
    speedup_lo;
    qos_hi = !qos;
    feasible = !qos <= t.budget +. feasibility_eps t.budget;
  }

let budget t = t.budget
let n_phases t = t.n_phases
let abs t = t.abs
let hits t = t.hits
let misses t = t.misses
