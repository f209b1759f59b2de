(** Schedule cost for the stochastic search (minimized).

    The chain prices whole schedules through the {e models}, never the
    simulator: one {!t} compiles the models' hoisted prediction pipeline
    ({!Opprox.Models.predictor}) plus a per-phase memo
    ({!Opprox_sim.Config_memo}) keyed on every AB's level.  A revisited
    row costs one hash over its levels and one table probe, and
    allocates nothing, so a proposal that changes one phase's row
    prices only that row through the models.  A [t] wraps mutable
    scratch and a single-domain predictor — build one per chain, never
    share one across domains. *)

type eval = {
  cost : float;
      (** [-. compose_speedup speedup_lo's +. penalty *. overrun]: lower
          is better; a feasible schedule's cost is the negated composed
          conservative speedup *)
  speedup : float;  (** composed point-estimate speedup *)
  speedup_lo : float;  (** composed conservative (lower-CI) speedup *)
  qos_hi : float;  (** summed conservative per-phase QoS degradation *)
  feasible : bool;  (** [qos_hi <= budget] (small relative slack) *)
}

type t

val penalty : float
(** Weight of the over-budget term (10.0 per percentage point of
    conservative-QoS overrun).  Large enough that no infeasible schedule
    ever outranks a feasible one on this problem's speedup scale, small
    enough that chains can traverse shallow violations while hot. *)

val make : models:Opprox.Models.t -> input:float array -> budget:float -> t
(** Compile the pricing pipeline for one (models, input, budget). *)

val eval : t -> int array array -> eval
(** Price one [n_phases x n_abs] schedule: conservative QoS summed from
    the last phase down, speedups composed in phase order
    ({!Opprox.Optimizer.compose_speedup}).  Deterministic: equal
    schedules always yield equal evals.  The memo keeps no reference to
    [sched], so the caller may mutate it afterwards.  Raises
    [Invalid_argument] on a level outside an AB's range. *)

val budget : t -> float
val n_phases : t -> int
val abs : t -> Opprox_sim.Ab.t array

val hits : t -> int
(** Per-phase lookups {!eval} answered from the memo so far. *)

val misses : t -> int
(** Per-phase lookups {!eval} had to price (points the memo now
    holds). *)
