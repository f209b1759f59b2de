(** Enumeration of approximation-level configurations.

    A configuration is a vector assigning one AL to each AB.  The spaces
    here back both the training sampler (exhaustive local sweeps + sparse
    joint samples, paper Sec. 3.3) and the phase-agnostic oracle's
    exhaustive search. *)

val count : Ab.t array -> int
(** Size of the full joint configuration space: prod (max_level_i + 1),
    saturated at [max_int] rather than wrapping (a 21-AB app with nine
    levels each has 9^21 > 2^62 points). *)

val phase_space_count : Ab.t array -> n_phases:int -> n_inputs:int -> int
(** Search-space size reported in Table 1: joint configurations times
    phases times input combinations, saturated at [max_int] like
    {!count}. *)

val all : Ab.t array -> int array list
(** Every joint configuration, all-zero vector first, in lexicographic
    order.  Intended for spaces up to a few thousand configurations. *)

val nth : Ab.t array -> int -> int array
(** [nth abs k] is element [k] of {!all}[ abs] (a fresh array), decoded
    as a mixed-radix number whose last AB is the fastest digit.  Requires
    [0 <= k < count abs]. *)

val equal : int array -> int array -> bool
(** Level-by-level equality of two configurations, without the
    polymorphic compare. *)

val advance : Ab.t array -> int array -> unit
(** Step a configuration in place to its successor in {!all} order.  The
    last configuration wraps to all-zero.  Walking [count abs - 1] steps
    from {!zero} visits the space without building the list. *)

val local_sweeps : Ab.t array -> (int * int array) list
(** For each AB index [a] and each level [l] in [1 .. max_level_a], the
    configuration with AB [a] at [l] and every other AB exact — the
    exhaustive per-AB "local model" samples. *)

val random : Opprox_util.Rng.t -> Ab.t array -> int array
(** Uniformly random joint configuration (any AB may be 0). *)

val random_nonzero : Opprox_util.Rng.t -> Ab.t array -> int array
(** Random configuration that approximates at least one AB. *)

val zero : Ab.t array -> int array
