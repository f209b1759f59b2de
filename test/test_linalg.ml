(* Unit and property tests for Opprox_linalg: Matrix, Lstsq, Polyfeat. *)

module Matrix = Opprox_linalg.Matrix
module Lstsq = Opprox_linalg.Lstsq
module Polyfeat = Opprox_linalg.Polyfeat
module Rng = Opprox_util.Rng
open Fixtures

let random_matrix rng rows cols =
  Matrix.init rows cols (fun _ _ -> Rng.range rng (-5.0) 5.0)

(* --------------------------------------------------------------- Matrix *)

let test_create_zero () =
  let m = Matrix.create 2 3 in
  check_float "zero" 0.0 (Matrix.get m 1 2);
  check_int "rows" 2 (Matrix.rows m);
  check_int "cols" 3 (Matrix.cols m)

let test_create_invalid () =
  Alcotest.check_raises "bad dims" (Invalid_argument "Matrix.create: non-positive dimension")
    (fun () -> ignore (Matrix.create 0 3))

let test_get_set () =
  let m = Matrix.create 2 2 in
  Matrix.set m 0 1 7.5;
  check_float "set then get" 7.5 (Matrix.get m 0 1)

let test_out_of_bounds () =
  let m = Matrix.create 2 2 in
  Alcotest.check_raises "oob" (Invalid_argument "Matrix.get: out of bounds") (fun () ->
      ignore (Matrix.get m 2 0))

let test_of_rows () =
  let m = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_float "entry" 3.0 (Matrix.get m 1 0)

let test_of_rows_copies () =
  let row = [| 1.0; 2.0 |] in
  let m = Matrix.of_rows [| row |] in
  row.(0) <- 99.0;
  check_float "deep copy" 1.0 (Matrix.get m 0 0)

let test_of_rows_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_rows: ragged rows") (fun () ->
      ignore (Matrix.of_rows [| [| 1.0 |]; [| 1.0; 2.0 |] |]))

let test_identity () =
  let i3 = Matrix.identity 3 in
  check_float "diag" 1.0 (Matrix.get i3 1 1);
  check_float "off-diag" 0.0 (Matrix.get i3 0 2)

let test_row_col () =
  let m = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (array (float 0.0))) "row" [| 3.0; 4.0 |] (Matrix.row m 1);
  Alcotest.(check (array (float 0.0))) "col" [| 2.0; 4.0 |] (Matrix.col m 1)

let test_transpose () =
  let m = Matrix.of_rows [| [| 1.0; 2.0; 3.0 |] |] in
  let t = Matrix.transpose m in
  check_int "rows" 3 (Matrix.rows t);
  check_float "entry" 2.0 (Matrix.get t 1 0)

let test_mul_known () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_rows [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  check_float "c00" 19.0 (Matrix.get c 0 0);
  check_float "c11" 50.0 (Matrix.get c 1 1)

let test_mul_identity () =
  let rng = Rng.create 1 in
  let a = random_matrix rng 4 4 in
  check_bool "a * I = a" true (Matrix.equal (Matrix.mul a (Matrix.identity 4)) a)

let test_mul_mismatch () =
  Alcotest.check_raises "dims" (Invalid_argument "Matrix.mul: dimension mismatch") (fun () ->
      ignore (Matrix.mul (Matrix.create 2 3) (Matrix.create 2 3)))

let test_mul_vec () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check (array (float 1e-12))) "Av" [| 5.0; 11.0 |] (Matrix.mul_vec a [| 1.0; 2.0 |])

let test_add_scale () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |] |] in
  let b = Matrix.add a (Matrix.scale a 2.0) in
  check_float "3a" 6.0 (Matrix.get b 0 1)

let test_solve_known () =
  (* 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3 *)
  let a = Matrix.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Matrix.solve a [| 5.0; 10.0 |] in
  check_float_eps 1e-9 "x" 1.0 x.(0);
  check_float_eps 1e-9 "y" 3.0 x.(1)

let test_solve_needs_pivoting () =
  (* Zero top-left pivot requires a row swap. *)
  let a = Matrix.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Matrix.solve a [| 2.0; 3.0 |] in
  check_float_eps 1e-9 "x" 3.0 x.(0);
  check_float_eps 1e-9 "y" 2.0 x.(1)

let test_solve_singular () =
  let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Matrix.solve: singular") (fun () ->
      ignore (Matrix.solve a [| 1.0; 2.0 |]))

let prop_transpose_involution =
  qcheck_case "transpose involutive" QCheck.(pair (int_range 1 6) (int_range 1 6))
    (fun (r, c) ->
      let rng = Rng.create ((r * 31) + c) in
      let m = random_matrix rng r c in
      Matrix.equal (Matrix.transpose (Matrix.transpose m)) m)

let prop_solve_recovers =
  qcheck_case ~count:50 "solve (A, Ax) recovers x" QCheck.(int_range 1 8) (fun n ->
      let rng = Rng.create (n + 100) in
      (* Diagonally dominant => well-conditioned and non-singular. *)
      let a =
        Matrix.init n n (fun i j ->
            if i = j then 10.0 +. Rng.uniform rng else Rng.range rng (-1.0) 1.0)
      in
      let x = Array.init n (fun _ -> Rng.range rng (-3.0) 3.0) in
      let b = Matrix.mul_vec a x in
      let solved = Matrix.solve a b in
      Array.for_all2 (fun u v -> Float.abs (u -. v) < 1e-8) x solved)

(* ------------------------------------------------------------------- Qr *)

module Qr = Opprox_linalg.Qr

let test_qr_r_upper_triangular () =
  let rng = Rng.create 41 in
  let a = random_matrix rng 6 4 in
  let r = Qr.r (Qr.decompose a) in
  for i = 0 to 3 do
    for j = 0 to i - 1 do
      check_float "below diagonal is zero" 0.0 (Matrix.get r i j)
    done
  done

let test_qr_solve_square () =
  let a = Matrix.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Qr.solve (Qr.decompose a) [| 5.0; 10.0 |] in
  check_float_eps 1e-9 "x" 1.0 x.(0);
  check_float_eps 1e-9 "y" 3.0 x.(1)

let test_qr_least_squares () =
  (* Overdetermined: QR minimizes the residual like the normal equations. *)
  let rows = Array.init 30 (fun i -> [| 1.0; float_of_int i |]) in
  let y = Array.init 30 (fun i -> (3.0 *. float_of_int i) +. 2.0) in
  let w = Qr.solve (Qr.decompose (Matrix.of_rows rows)) y in
  check_float_eps 1e-9 "intercept" 2.0 w.(0);
  check_float_eps 1e-9 "slope" 3.0 w.(1)

let test_qr_rank_deficiency_detected () =
  let rows = Array.init 6 (fun i -> [| float_of_int i; 2.0 *. float_of_int i |]) in
  check_bool "collinear columns flagged" true
    (Qr.rank_deficient (Qr.decompose (Matrix.of_rows rows)))

let test_qr_wide_rejected () =
  Alcotest.check_raises "wide matrix" (Invalid_argument "Qr.decompose: need rows >= cols")
    (fun () -> ignore (Qr.decompose (Matrix.create 2 3)))

let prop_qr_matches_normal_equations =
  qcheck_case ~count:30 "QR agrees with well-conditioned normal equations"
    QCheck.(int_range 2 6)
    (fun n ->
      let rng = Rng.create (n * 7) in
      let rows = Array.init (3 * n) (fun _ -> Array.init n (fun _ -> Rng.range rng (-2.0) 2.0)) in
      let truth = Array.init n (fun _ -> Rng.range rng (-3.0) 3.0) in
      let x = Matrix.of_rows rows in
      let y = Matrix.mul_vec x truth in
      let qr = Qr.decompose x in
      if Qr.rank_deficient qr then true
      else
        let w = Qr.solve qr y in
        Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-6) w truth)

(* ---------------------------------------------------------------- Lstsq *)

let test_lstsq_exact_line () =
  (* y = 2x + 1 fit from exact points. *)
  let x = Matrix.of_rows [| [| 1.0; 0.0 |]; [| 1.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let w = Lstsq.fit x [| 1.0; 3.0; 5.0 |] in
  check_float_eps 1e-8 "intercept" 1.0 w.(0);
  check_float_eps 1e-8 "slope" 2.0 w.(1)

let test_lstsq_overdetermined () =
  (* Noisy points around y = x: least squares stays close. *)
  let rows = Array.init 20 (fun i -> [| 1.0; float_of_int i |]) in
  let y = Array.init 20 (fun i -> float_of_int i +. if i mod 2 = 0 then 0.1 else -0.1) in
  let w = Lstsq.fit (Matrix.of_rows rows) y in
  check_bool "slope ~ 1" true (Float.abs (w.(1) -. 1.0) < 0.02)

let test_lstsq_ridge_on_collinear () =
  (* Perfectly collinear columns are singular without ridge; fit must not
     raise thanks to penalty escalation. *)
  let rows = Array.init 6 (fun i -> [| float_of_int i; 2.0 *. float_of_int i |]) in
  let y = Array.init 6 (fun i -> float_of_int i) in
  let w = Lstsq.fit (Matrix.of_rows rows) y in
  check_bool "finite" true (Array.for_all Float.is_finite w)

let test_lstsq_predict () =
  let x = Matrix.of_rows [| [| 1.0; 2.0 |] |] in
  Alcotest.(check (array (float 1e-12))) "predict" [| 8.0 |] (Lstsq.predict x [| 2.0; 3.0 |])

let test_lstsq_fit_predict () =
  let x = Matrix.of_rows [| [| 1.0; 0.0 |]; [| 1.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let y = [| 2.0; 4.0; 8.0 |] in
  let _, preds = Lstsq.fit_predict x y in
  Array.iteri (fun i p -> check_float_eps 1e-8 "interpolates" y.(i) p) preds

(* ------------------------------------------------------------- Polyfeat *)

let binomial n k =
  let k = Stdlib.min k (n - k) in
  let num = ref 1 and den = ref 1 in
  for i = 0 to k - 1 do
    num := !num * (n - i);
    den := !den * (i + 1)
  done;
  !num / !den

let test_polyfeat_dim () =
  (* output dim = C(arity + degree, degree) *)
  List.iter
    (fun (arity, degree) ->
      let f = Polyfeat.create ~arity ~degree () in
      check_int
        (Printf.sprintf "dim(%d,%d)" arity degree)
        (binomial (arity + degree) degree)
        (Polyfeat.output_dim f))
    [ (1, 3); (2, 2); (3, 4); (5, 2) ]

let test_polyfeat_constant_first () =
  let f = Polyfeat.create ~arity:2 ~degree:2 () in
  match Polyfeat.exponents f with
  | first :: _ -> Alcotest.(check (array int)) "constant term first" [| 0; 0 |] first
  | [] -> Alcotest.fail "no exponents"

let test_polyfeat_apply_line () =
  let f = Polyfeat.create ~arity:1 ~degree:2 () in
  Alcotest.(check (array (float 1e-12))) "1, x, x^2" [| 1.0; 3.0; 9.0 |]
    (Polyfeat.apply f [| 3.0 |])

let test_polyfeat_degree2_pair () =
  let f = Polyfeat.create ~arity:2 ~degree:2 () in
  let out = Polyfeat.apply f [| 2.0; 3.0 |] in
  let sorted = Array.copy out in
  Array.sort compare sorted;
  (* 1, 2, 3, 4, 6, 9 in some graded order *)
  Alcotest.(check (array (float 1e-12))) "all monomials" [| 1.0; 2.0; 3.0; 4.0; 6.0; 9.0 |] sorted

let test_polyfeat_arity_mismatch () =
  let f = Polyfeat.create ~arity:2 ~degree:1 () in
  Alcotest.check_raises "arity" (Invalid_argument "Polyfeat.apply: arity mismatch") (fun () ->
      ignore (Polyfeat.apply f [| 1.0 |]))

let test_polyfeat_caps () =
  (* Cap the first feature at exponent 1: x^2 monomials disappear. *)
  let f = Polyfeat.create ~caps:[| 1; 2 |] ~arity:2 ~degree:2 () in
  let has_x2 =
    List.exists (fun e -> e.(0) >= 2) (Polyfeat.exponents f)
  in
  check_bool "no x^2" false has_x2;
  let has_y2 = List.exists (fun e -> e.(1) = 2) (Polyfeat.exponents f) in
  check_bool "y^2 kept" true has_y2

let test_polyfeat_design_matrix () =
  let f = Polyfeat.create ~arity:1 ~degree:1 () in
  let m = Polyfeat.design_matrix f [| [| 2.0 |]; [| 5.0 |] |] in
  check_int "rows" 2 (Matrix.rows m);
  check_float "x value" 5.0 (Matrix.get m 1 1)

let prop_polyfeat_product_structure =
  qcheck_case "monomial values multiply" QCheck.(pair (float_range 0.5 2.0) (float_range 0.5 2.0))
    (fun (x, y) ->
      let f = Polyfeat.create ~arity:2 ~degree:3 () in
      let out = Polyfeat.apply f [| x; y |] in
      let exps = Array.of_list (Polyfeat.exponents f) in
      Array.for_all2
        (fun v e -> Float.abs (v -. ((x ** float_of_int e.(0)) *. (y ** float_of_int e.(1)))) < 1e-9)
        out exps)

(* The closure-and-[pow] expansion [Polyfeat.apply_into] used to be,
   kept as the reference its loop rewrite must match bit for bit. *)
let reference_apply f raw =
  let pow x n =
    let rec go acc x n =
      if n = 0 then acc
      else if n land 1 = 1 then go (acc *. x) (x *. x) (n lsr 1)
      else go acc (x *. x) (n lsr 1)
    in
    go 1.0 x n
  in
  Array.of_list
    (List.map
       (fun expv ->
         let acc = ref 1.0 in
         Array.iteri (fun i e -> if e > 0 then acc := !acc *. pow raw.(i) e) expv;
         !acc)
       (Polyfeat.exponents f))

let prop_polyfeat_apply_into_bit_identical =
  (* Raw values span signs, zeros, tiny and huge magnitudes (so powers
     underflow and overflow) and the non-finite values. *)
  let raw_value =
    QCheck.Gen.(
      frequency
        [
          (6, float_range (-3.0) 3.0);
          (2, map (fun e -> Float.ldexp 1.3 e) (int_range (-600) 600));
          (1, oneofl [ 0.0; -0.0; 1.0; -1.0; Float.nan; Float.infinity; Float.neg_infinity ]);
        ])
  in
  let gen =
    QCheck.Gen.(
      int_range 1 5 >>= fun arity ->
      int_range 0 7 >>= fun degree ->
      array_size (return arity) (int_range 0 7) >>= fun caps ->
      array_size (return arity) raw_value >|= fun raw -> (degree, caps, raw))
  in
  qcheck_case ~count:300 "apply_into bit-identical to closure-and-pow reference"
    (QCheck.make gen) (fun (degree, caps, raw) ->
      let f = Polyfeat.create ~caps ~arity:(Array.length raw) ~degree () in
      let out = Array.make (Polyfeat.output_dim f) 0.0 in
      Polyfeat.apply_into f raw out;
      Array.for_all2
        (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
        out (reference_apply f raw))

(* The dense loop [Polyfeat.apply_into] was before it kept each
   monomial's non-zero exponents: every exponent of every monomial is
   tested, zeros skipped.  Kept as the reference the sparse loop must
   match bit for bit. *)
let dense_apply_into f raw out =
  let exponents = Array.of_list (Polyfeat.exponents f) in
  for m = 0 to Array.length exponents - 1 do
    let expv = exponents.(m) in
    let acc = ref 1.0 in
    for i = 0 to Polyfeat.arity f - 1 do
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

let same_bits_array a b =
  Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let prop_polyfeat_sparse_matches_dense =
  (* Maps from [create] (with and without caps) and from explicit
     [of_exponents] matrices, whose rows may repeat, skip the constant
     or be all-zero anywhere. *)
  let raw_value =
    QCheck.Gen.(
      frequency
        [
          (6, float_range (-3.0) 3.0);
          (2, map (fun e -> Float.ldexp 1.3 e) (int_range (-600) 600));
          (1, oneofl [ 0.0; -0.0; 1.0; -1.0; Float.nan; Float.infinity; Float.neg_infinity ]);
        ])
  in
  let gen =
    QCheck.Gen.(
      int_range 1 6 >>= fun arity ->
      int_range 0 6 >>= fun degree ->
      int_range 0 2 >>= fun mode ->
      array_size (return arity) (int_range 0 6) >>= fun caps ->
      array_size (int_range 1 12) (array_size (return arity) (int_range 0 5)) >>= fun rows ->
      array_size (return arity) raw_value >|= fun raw ->
      let f =
        match mode with
        | 0 -> Polyfeat.create ~arity ~degree ()
        | 1 -> Polyfeat.create ~caps ~arity ~degree ()
        | _ -> Polyfeat.of_exponents rows
      in
      (f, raw))
  in
  qcheck_case ~count:400 "sparse apply_into bit-identical to the dense loop"
    (QCheck.make gen) (fun (f, raw) ->
      let sparse = Array.make (Polyfeat.output_dim f) 0.0 in
      let dense = Array.make (Polyfeat.output_dim f) 0.0 in
      Polyfeat.apply_into f raw sparse;
      dense_apply_into f raw dense;
      same_bits_array sparse dense)

let test_polyfeat_apply_into_allocation () =
  let f = Polyfeat.create ~arity:16 ~degree:2 () in
  let raw = Array.init 16 (fun i -> 0.25 *. float_of_int (i + 1)) in
  let out = Array.make (Polyfeat.output_dim f) 0.0 in
  Polyfeat.apply_into f raw out;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Polyfeat.apply_into f raw out
  done;
  let words = Gc.minor_words () -. before in
  (* Only the boxed float [Gc.minor_words] itself returns. *)
  check_bool (Printf.sprintf "1000 expansions allocate %.0f words (<= 8)" words) true (words <= 8.0)

let suite =
  [
    ( "matrix",
      [
        Alcotest.test_case "create zero" `Quick test_create_zero;
        Alcotest.test_case "create invalid" `Quick test_create_invalid;
        Alcotest.test_case "get/set" `Quick test_get_set;
        Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
        Alcotest.test_case "of_rows" `Quick test_of_rows;
        Alcotest.test_case "of_rows copies" `Quick test_of_rows_copies;
        Alcotest.test_case "of_rows ragged" `Quick test_of_rows_ragged;
        Alcotest.test_case "identity" `Quick test_identity;
        Alcotest.test_case "row/col" `Quick test_row_col;
        Alcotest.test_case "transpose" `Quick test_transpose;
        Alcotest.test_case "mul known" `Quick test_mul_known;
        Alcotest.test_case "mul identity" `Quick test_mul_identity;
        Alcotest.test_case "mul mismatch" `Quick test_mul_mismatch;
        Alcotest.test_case "mul_vec" `Quick test_mul_vec;
        Alcotest.test_case "add/scale" `Quick test_add_scale;
        Alcotest.test_case "solve known" `Quick test_solve_known;
        Alcotest.test_case "solve pivoting" `Quick test_solve_needs_pivoting;
        Alcotest.test_case "solve singular" `Quick test_solve_singular;
        prop_transpose_involution;
        prop_solve_recovers;
      ] );
    ( "qr",
      [
        Alcotest.test_case "R upper triangular" `Quick test_qr_r_upper_triangular;
        Alcotest.test_case "solve square" `Quick test_qr_solve_square;
        Alcotest.test_case "least squares" `Quick test_qr_least_squares;
        Alcotest.test_case "rank deficiency" `Quick test_qr_rank_deficiency_detected;
        Alcotest.test_case "wide rejected" `Quick test_qr_wide_rejected;
        prop_qr_matches_normal_equations;
      ] );
    ( "lstsq",
      [
        Alcotest.test_case "exact line" `Quick test_lstsq_exact_line;
        Alcotest.test_case "overdetermined" `Quick test_lstsq_overdetermined;
        Alcotest.test_case "ridge on collinear" `Quick test_lstsq_ridge_on_collinear;
        Alcotest.test_case "predict" `Quick test_lstsq_predict;
        Alcotest.test_case "fit_predict" `Quick test_lstsq_fit_predict;
      ] );
    ( "polyfeat",
      [
        Alcotest.test_case "output dim" `Quick test_polyfeat_dim;
        Alcotest.test_case "constant first" `Quick test_polyfeat_constant_first;
        Alcotest.test_case "apply line" `Quick test_polyfeat_apply_line;
        Alcotest.test_case "degree-2 pair" `Quick test_polyfeat_degree2_pair;
        Alcotest.test_case "arity mismatch" `Quick test_polyfeat_arity_mismatch;
        Alcotest.test_case "exponent caps" `Quick test_polyfeat_caps;
        Alcotest.test_case "design matrix" `Quick test_polyfeat_design_matrix;
        prop_polyfeat_product_structure;
        prop_polyfeat_apply_into_bit_identical;
        prop_polyfeat_sparse_matches_dense;
        Alcotest.test_case "apply_into allocation" `Quick test_polyfeat_apply_into_allocation;
      ] );
  ]
