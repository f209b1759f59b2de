type t = { arity : int; degree : int; exponents : int array array }

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
  { arity; degree; exponents }

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
  { arity; degree; exponents = Array.map Array.copy exponents }

let arity t = t.arity
let degree t = t.degree
let output_dim t = Array.length t.exponents
let exponents t = Array.to_list (Array.map Array.copy t.exponents)

(* Plain loops with no closure or captured [ref]: this runs on every
   regression evaluation.  [x^e] is square-and-multiply, low bit first
   (odd bit: [p *. x]; every bit: [x *. x]).  Keep that multiplication
   order: saved models and the pinned plans depend on bit-identical
   features. *)
let apply_into t raw out =
  if Array.length raw <> t.arity then invalid_arg "Polyfeat.apply_into: arity mismatch";
  if Array.length out <> Array.length t.exponents then
    invalid_arg "Polyfeat.apply_into: output dim mismatch";
  for m = 0 to Array.length t.exponents - 1 do
    let expv = t.exponents.(m) in
    let acc = ref 1.0 in
    for i = 0 to t.arity - 1 do
      let e = expv.(i) in
      if e > 0 then begin
        let p = ref 1.0 and x = ref raw.(i) and n = ref e in
        while !n > 0 do
          if !n land 1 = 1 then p := !p *. !x;
          x := !x *. !x;
          n := !n lsr 1
        done;
        acc := !acc *. !p
      end
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
