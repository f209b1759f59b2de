type t = {
  arity : int;
  degree : int;
  exponents : int array array;
  factors : int array array;
      (* per monomial, its non-zero exponents as flat (variable, exponent)
         pairs in increasing variable order: at most [degree] pairs *)
}

let factors_of exponents =
  Array.map
    (fun expv ->
      let pairs = ref [] in
      for i = Array.length expv - 1 downto 0 do
        if expv.(i) > 0 then pairs := i :: expv.(i) :: !pairs
      done;
      Array.of_list !pairs)
    exponents

let make ~arity ~degree exponents = { arity; degree; exponents; factors = factors_of exponents }

(* Enumerate exponent vectors with total degree <= d, graded order:
   constant first, then degree 1 monomials, etc. *)
let enumerate_exponents arity degree =
  let acc = ref [] in
  let current = Array.make arity 0 in
  let rec go pos remaining =
    if pos = arity then acc := Array.copy current :: !acc
    else
      for e = 0 to remaining do
        current.(pos) <- e;
        go (pos + 1) (remaining - e);
        current.(pos) <- 0
      done
  in
  go 0 degree;
  let all = Array.of_list (List.rev !acc) in
  let total v = Array.fold_left ( + ) 0 v in
  (* Stable sort by total degree keeps a deterministic, readable order. *)
  let indexed = Array.mapi (fun i v -> (i, v)) all in
  Array.sort
    (fun (i, a) (j, b) ->
      match compare (total a) (total b) with 0 -> compare i j | c -> c)
    indexed;
  Array.map snd indexed

let create ?caps ~arity ~degree () =
  if arity < 1 then invalid_arg "Polyfeat.create: arity must be >= 1";
  if degree < 0 then invalid_arg "Polyfeat.create: degree must be >= 0";
  let exponents = enumerate_exponents arity degree in
  let exponents =
    match caps with
    | None -> exponents
    | Some caps ->
        if Array.length caps <> arity then invalid_arg "Polyfeat.create: caps arity mismatch";
        Array.of_seq
          (Seq.filter
             (fun expv ->
               let ok = ref true in
               Array.iteri (fun j e -> if e > caps.(j) then ok := false) expv;
               !ok)
             (Array.to_seq exponents))
  in
  make ~arity ~degree exponents

let of_exponents exponents =
  let n = Array.length exponents in
  if n = 0 then invalid_arg "Polyfeat.of_exponents: empty";
  let arity = Array.length exponents.(0) in
  if arity = 0 then invalid_arg "Polyfeat.of_exponents: zero arity";
  Array.iter
    (fun e -> if Array.length e <> arity then invalid_arg "Polyfeat.of_exponents: ragged")
    exponents;
  let degree =
    Array.fold_left (fun acc e -> Stdlib.max acc (Array.fold_left ( + ) 0 e)) 0 exponents
  in
  make ~arity ~degree (Array.map Array.copy exponents)

let arity t = t.arity
let degree t = t.degree
let output_dim t = Array.length t.exponents
let exponents t = Array.to_list (Array.map Array.copy t.exponents)

(* Plain loops with no closure or captured [ref]: this runs on every
   regression evaluation, and visits only each monomial's non-zero
   exponents.  [x^e] is square-and-multiply, low bit first (odd bit:
   [p *. x]; every bit: [x *. x]), and the factors multiply in increasing
   variable order.  Keep both orders: saved models and the pinned plans
   depend on bit-identical features. *)
let apply_into t raw out =
  if Array.length raw <> t.arity then invalid_arg "Polyfeat.apply_into: arity mismatch";
  if Array.length out <> Array.length t.exponents then
    invalid_arg "Polyfeat.apply_into: output dim mismatch";
  for m = 0 to Array.length t.factors - 1 do
    let pairs = t.factors.(m) in
    let acc = ref 1.0 in
    for f = 0 to (Array.length pairs / 2) - 1 do
      let p = ref 1.0 and x = ref raw.(pairs.(2 * f)) and n = ref pairs.((2 * f) + 1) in
      while !n > 0 do
        if !n land 1 = 1 then p := !p *. !x;
        x := !x *. !x;
        n := !n lsr 1
      done;
      acc := !acc *. !p
    done;
    out.(m) <- !acc
  done

let apply t raw =
  if Array.length raw <> t.arity then invalid_arg "Polyfeat.apply: arity mismatch";
  let out = Array.make (Array.length t.exponents) 0.0 in
  apply_into t raw out;
  out

let design_matrix t rows =
  if Array.length rows = 0 then invalid_arg "Polyfeat.design_matrix: no rows";
  Matrix.of_rows (Array.map (apply t) rows)
