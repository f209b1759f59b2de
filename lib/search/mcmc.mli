(** One Metropolis–Hastings chain over per-phase AL schedules.

    The STOKE recipe ported from instruction sequences to schedules: the
    chain starts from the all-exact schedule (always feasible for a
    non-negative budget — the zero-anchor of the models), proposes one
    {!Mutate} move per step, accepts improvements always and regressions
    with probability [exp (-delta / temperature)] under a geometrically
    decaying temperature, and separately tracks the best {e feasible}
    schedule it ever visited — the chain may wander through shallow
    budget violations while hot, but what it returns never does.

    Everything is a pure function of the input [Rng.t]'s state: two
    chains given generators with equal state produce bit-identical
    results whatever domain they run on. *)

type config = {
  iters : int;  (** proposal steps *)
  init_temp : float;  (** starting temperature (cost units) *)
  decay : float;  (** per-step geometric temperature factor *)
  min_temp : float;  (** temperature floor *)
  restart_stall : int;
      (** steps without a new best before the chain teleports back to its
          best feasible schedule (0 disables restarts) *)
}

val default_config : iters:int -> config
(** [init_temp 1.0], [decay 0.999], [min_temp 1e-3], [restart_stall] a
    fifth of [iters] — the SNIPPETS/STOKE shape. *)

type result = {
  best : (int array array * Cost.eval) option;
      (** best feasible schedule visited, or [None] if the chain never
          saw one (negative budget) *)
  steps : int;
  accepts : int;
  restarts : int;
}

val run :
  rng:Opprox_util.Rng.t -> cost:Cost.t -> first_phase:int -> config -> result
(** Run one chain.  Phase count / AB ranges come from [cost].  Each
    proposal is priced with {!Cost.eval}, whose memo answers the rows
    the proposal left alone. *)

val polish :
  cost:Cost.t -> first_phase:int -> int array array -> int array array * Cost.eval
(** Deterministic steepest-descent finish: repeatedly take the move that
    most improves the feasible cost — a single (phase, AB, +-1) step or a
    whole phase-pair swap — until no move improves.  The swap moves merge
    the [A|B] / [B|A] basin pairs that single-cell descent cannot cross
    between.  RNG-free, so chains that converged into one basin collapse
    to the {e same} local optimum — this is what makes best-of-chains
    bit-identical across chain counts once the iteration budget suffices.
    Works in place on one copy of [sched] (which it never modifies): a
    candidate sets one cell or swaps two rows, is priced and is undone,
    and only a candidate that beats the pass's best so far is copied.
    Requires a feasible starting schedule. *)
