(** Polynomial feature expansion.

    Maps a raw feature vector [(x1, ..., xk)] to the vector of all monomials
    [x1^e1 * ... * xk^ek] with [e1 + ... + ek <= degree], constant term
    included.  This is the basis OPPROX's polynomial-regression models are
    fit in (paper Sec. 3.6: "c0 + c1 s1 + c2 s2 + c3 s1 s2 + c4 s1^2 + ..."). *)

type t
(** A feature map for a fixed input arity and degree. *)

val create : ?caps:int array -> arity:int -> degree:int -> unit -> t
(** Requires [arity >= 1] and [degree >= 0].  [caps.(j)], when given,
    bounds the exponent of feature [j] in every monomial: a feature
    observed at only [k] distinct values cannot identify powers above
    [k - 1], and uncapped fits oscillate wildly between the observed
    values. *)

val arity : t -> int
val degree : t -> int

val output_dim : t -> int
(** Number of monomials, i.e. [C(arity + degree, degree)]. *)

val of_exponents : int array array -> t
(** Rebuild a feature map from explicit exponent vectors (deserialization).
    Requires a non-empty, rectangular array; the degree is the largest
    total degree present. *)

val exponents : t -> int array list
(** The exponent vector of each monomial, in output order.  The first entry
    is the all-zero vector (constant term). *)

val apply : t -> float array -> float array
(** Expand one raw feature vector.  Raises [Invalid_argument] on arity
    mismatch. *)

val apply_into : t -> float array -> float array -> unit
(** [apply_into t raw out] expands [raw] into the preallocated buffer
    [out] (length {!output_dim}), allocation-free.  The hot prediction
    loops reuse one buffer across millions of expansions; see
    {!Opprox_ml.Polyreg.predictor}.  Each monomial's non-zero
    (variable, exponent) pairs are fixed when the map is built, so a
    monomial of total degree [d] costs at most [d] powers, whatever the
    arity; factors multiply in increasing variable order, each power by
    square-and-multiply, and the results are bit-identical to {!apply}.
    Raises [Invalid_argument] on arity or output-length mismatch. *)

val design_matrix : t -> float array array -> Matrix.t
(** Expand a batch of raw feature vectors into a design matrix with one
    expanded row per input row. *)
