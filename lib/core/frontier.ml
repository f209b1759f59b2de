(* Steps in ascending [qos_hi] order; step [i] answers every budget in
   [qos_hi.(i), qos_hi.(i + 1)).  Speedups are non-decreasing along it. *)
type staircase = {
  mutable qos_hi : float array;
  mutable index : int array;
  mutable pred : Models.prediction array;
  mutable len : int;
}

type t = Staircase of staircase | Scan of { n : int; price : int -> Models.prediction }

exception Non_finite

(* How many of the first [len] entries of the ascending [a] are [<= x]
   ([< x] when [strict]). *)
let count_below ?(strict = false) (a : float array) len (x : float) =
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let below = if strict then a.(mid) < x else a.(mid) <= x in
    if below then lo := mid + 1 else hi := mid
  done;
  !lo

let grow st fill =
  let cap = 2 * Array.length st.qos_hi in
  let extend a x =
    let b = Array.make cap x in
    Array.blit a 0 b 0 st.len;
    b
  in
  st.qos_hi <- extend st.qos_hi 0.0;
  st.index <- extend st.index 0;
  st.pred <- extend st.pred fill

(* Points arrive in index order, so an arriving point loses every tie to
   the steps already there.  It is dominated when the step answering
   budget [q] already reaches its speedup.  Otherwise it replaces the step
   at its own threshold, if any, and the run after it whose speedup it
   beats.  Later steps with an equal speedup stay: they are earlier
   points, and win from their own threshold on. *)
let insert st k (p : Models.prediction) =
  let q = p.qos_hi and s = p.speedup_lo in
  if not (Float.is_finite q && Float.is_finite s) then raise Non_finite;
  let hi = count_below st.qos_hi st.len q in
  if hi = 0 || st.pred.(hi - 1).speedup_lo < s then begin
    let lo = count_below ~strict:true st.qos_hi st.len q in
    let r = ref hi in
    while !r < st.len && st.pred.(!r).speedup_lo < s do
      incr r
    done;
    (* Steps [lo, r) give way to one new step at [lo]. *)
    let len' = st.len + 1 - (!r - lo) in
    if len' > Array.length st.qos_hi then grow st p;
    let tail = st.len - !r in
    Array.blit st.qos_hi !r st.qos_hi (lo + 1) tail;
    Array.blit st.index !r st.index (lo + 1) tail;
    Array.blit st.pred !r st.pred (lo + 1) tail;
    st.qos_hi.(lo) <- q;
    st.index.(lo) <- k;
    st.pred.(lo) <- p;
    st.len <- len'
  end

let build ~n price =
  if n < 1 then invalid_arg "Frontier.build: empty space";
  let first = price 0 in
  let st =
    { qos_hi = Array.make 16 0.0; index = Array.make 16 0; pred = Array.make 16 first; len = 0 }
  in
  match
    insert st 0 first;
    for k = 1 to n - 1 do
      insert st k (price k)
    done
  with
  | () -> Staircase st
  | exception Non_finite -> Scan { n; price }

let query t ~budget =
  match t with
  | Staircase st ->
      let i = count_below st.qos_hi st.len budget in
      if i = 0 then None else Some (st.index.(i - 1), st.pred.(i - 1))
  | Scan { n; price } ->
      (* The per-point rule the staircase reproduces: the first point of
         greatest conservative speedup among those whose conservative QoS
         fits the budget. *)
      let best = ref None in
      for k = 0 to n - 1 do
        let p = price k in
        if p.Models.qos_hi <= budget then
          match !best with
          | Some (_, (b : Models.prediction)) when b.speedup_lo >= p.speedup_lo -> ()
          | _ -> best := Some (k, p)
      done;
      !best
