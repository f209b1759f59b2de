(** Per-phase memo over configurations.

    The solvers price single (phase, levels) points through the models
    and revisit many of them: a chain walks back over its own path, and
    a descent pass re-prices its neighbours.  This table answers a
    revisit without pricing it again.  Its key is the levels themselves,
    hashed over every element ({!hash}) and compared level by level, so
    a lookup allocates nothing and any configuration space works,
    including one whose {!Config_space.count} saturates.  (A polymorphic
    [Hashtbl] over a level list reads only its first few elements, so on
    a 13-AB app it never saw the last four ABs and piled whole
    neighbourhoods into one bucket.)

    A table is plain mutable state: use one per domain. *)

type 'a t

val create : Ab.t array -> n_phases:int -> 'a t
(** An empty memo for configurations of [abs] in phases
    [0..n_phases-1]. *)

val hash : int array -> int
(** The hash a configuration is filed under.  It reads every level, so
    two configurations that differ in one AB hash apart. *)

val find : 'a t -> phase:int -> levels:int array -> 'a
(** The value stored for [(phase, levels)].  Raises [Not_found] when
    there is none. *)

val add : 'a t -> phase:int -> levels:int array -> 'a -> unit
(** Store (or replace) the value for [(phase, levels)].  The memo keeps
    a copy of [levels], never the array itself.  Raises
    [Invalid_argument] on an arity mismatch or a level outside
    [0..max_level]. *)
