(** Per-phase Pareto staircase over one phase's configuration space.

    The optimizer's per-phase rule (paper Algorithm 2) is: among the
    configurations whose conservative QoS [qos_hi] fits the phase's
    sub-budget, take the one with the greatest conservative speedup
    [speedup_lo], the earliest in enumeration order on a tie.  Pricing a
    configuration does not depend on the budget, so the answers for
    every budget form a staircase: ascending [qos_hi] thresholds with
    non-decreasing [speedup_lo], each step naming its winner.  It is
    built from one pass over the space and then answers any budget by
    binary search, for every sweep and every budget a solver is reused
    for. *)

type t

val build : n:int -> (int -> Models.prediction) -> t
(** [build ~n price] prices points [0..n-1] by calling [price] on each
    index once, in increasing order, and keeps only the staircase.  When
    some point prices to a non-finite [qos_hi] or [speedup_lo] the
    ordering argument no longer holds: the result then keeps [price] and
    answers each {!query} with a plain scan that calls [price] on
    [0..n-1] again, in order.  Requires [n >= 1]. *)

val query : t -> budget:float -> (int * Models.prediction) option
(** The index and prediction of the first point, in index order, of
    greatest [speedup_lo] among those with [qos_hi <= budget]; [None] when
    no point fits. *)
