module Rng = Opprox_util.Rng

(* [a * b], pinned at [max_int] instead of wrapping when both are
   positive: 9^21 would otherwise read as a negative count.  A
   non-positive factor (a malformed AB) passes through, so the product
   still reads as an empty space. *)
let saturating_mul a b = if b > 0 && a > max_int / b then max_int else a * b

let count abs =
  Array.fold_left (fun acc (ab : Ab.t) -> saturating_mul acc (ab.max_level + 1)) 1 abs

let phase_space_count abs ~n_phases ~n_inputs =
  if n_phases < 1 || n_inputs < 1 then invalid_arg "Config_space.phase_space_count";
  saturating_mul (saturating_mul (count abs) n_phases) n_inputs

let all abs =
  let n = Array.length abs in
  if n = 0 then invalid_arg "Config_space.all: no ABs";
  let rec go a =
    if a = n then [ [] ]
    else
      let rest = go (a + 1) in
      List.concat_map
        (fun l -> List.map (fun tail -> l :: tail) rest)
        (List.init (abs.(a).Ab.max_level + 1) (fun l -> l))
  in
  List.map Array.of_list (go 0)

let nth abs k =
  if k < 0 || k >= count abs then invalid_arg "Config_space.nth: index out of range";
  let levels = Array.make (Array.length abs) 0 in
  let r = ref k in
  for a = Array.length abs - 1 downto 0 do
    let radix = abs.(a).Ab.max_level + 1 in
    levels.(a) <- !r mod radix;
    r := !r / radix
  done;
  levels

let equal (a : int array) b =
  let n = Array.length a in
  n = Array.length b
  &&
  let i = ref 0 in
  while !i < n && a.(!i) = b.(!i) do
    incr i
  done;
  !i = n

let advance abs levels =
  let a = ref (Array.length abs - 1) in
  while !a >= 0 && levels.(!a) >= abs.(!a).Ab.max_level do
    levels.(!a) <- 0;
    decr a
  done;
  if !a >= 0 then levels.(!a) <- levels.(!a) + 1

let local_sweeps abs =
  let n = Array.length abs in
  List.concat
    (List.init n (fun a ->
         List.init abs.(a).Ab.max_level (fun l ->
             let config = Array.make n 0 in
             config.(a) <- l + 1;
             (a, config))))

let zero abs = Array.make (Array.length abs) 0

let random rng abs = Array.map (fun (ab : Ab.t) -> Rng.int rng (ab.Ab.max_level + 1)) abs

let random_nonzero rng abs =
  let rec retry () =
    let c = random rng abs in
    if Array.exists (fun l -> l > 0) c then c else retry ()
  in
  retry ()
