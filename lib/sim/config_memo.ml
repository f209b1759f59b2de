(* SplitMix64's finaliser in native ints (the constants are the 64-bit
   ones cut to fit OCaml's 63).  Neighbouring configurations differ in a
   few levels, which a plain polynomial would crowd into a few buckets. *)
let mix k =
  let k = (k lxor (k lsr 30)) * 0x3f58476d1ce4e5b9 in
  let k = (k lxor (k lsr 27)) * 0x14d049bb133111eb in
  k lxor (k lsr 31)

let hash (levels : int array) =
  let h = ref (Array.length levels) in
  for i = 0 to Array.length levels - 1 do
    h := (!h * 31) + levels.(i)
  done;
  mix !h

module Tbl = Hashtbl.Make (struct
  type t = int array

  let equal = Config_space.equal
  let hash = hash
end)

type 'a t = { abs : Ab.t array; tables : 'a Tbl.t array }

(* Small on purpose: a 4096-bucket array is 32 KB, past the minor heap's
   size limit, so every solve or chain that built one allocated it
   straight into the major heap.  The tables grow as they fill. *)
let initial_size = 16

let create abs ~n_phases =
  if n_phases < 1 then invalid_arg "Config_memo.create: n_phases must be >= 1";
  { abs; tables = Array.init n_phases (fun _ -> Tbl.create initial_size) }

let check_levels abs levels =
  if Array.length levels <> Array.length abs then invalid_arg "Config_memo: arity mismatch";
  for a = 0 to Array.length abs - 1 do
    let l = levels.(a) in
    if l < 0 || l > abs.(a).Ab.max_level then invalid_arg "Config_memo: level out of range"
  done

(* [add] checks every key it stores, so a malformed one is never found. *)
let find t ~phase ~levels = Tbl.find t.tables.(phase) levels

(* The copy is taken on a miss only, when the models price the point
   anyway. *)
let add t ~phase ~levels v =
  check_levels t.abs levels;
  Tbl.replace t.tables.(phase) (Array.copy levels) v
