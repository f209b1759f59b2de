module Rng = Opprox_util.Rng
module Ab = Opprox_sim.Ab
module Config_space = Opprox_sim.Config_space

type config = {
  iters : int;
  init_temp : float;
  decay : float;
  min_temp : float;
  restart_stall : int;
}

let default_config ~iters =
  {
    iters;
    init_temp = 1.0;
    decay = 0.999;
    min_temp = 1e-3;
    restart_stall = Stdlib.max 1 (iters / 5);
  }

type result = {
  best : (int array array * Cost.eval) option;
  steps : int;
  accepts : int;
  restarts : int;
}

let copy_sched = Array.map Array.copy

let run ~rng ~cost ~first_phase config =
  let abs = Cost.abs cost in
  let n_phases = Cost.n_phases cost in
  (* Schedules are never mutated in place here ({!Mutate} returns fresh
     ones), so [current] and [best] share rows without copies. *)
  let current = ref (Array.init n_phases (fun _ -> Array.make (Array.length abs) 0)) in
  let current_eval = ref (Cost.eval cost !current) in
  let best = ref (if !current_eval.Cost.feasible then Some (!current, !current_eval) else None) in
  let temp = ref config.init_temp in
  let accepts = ref 0 in
  let restarts = ref 0 in
  let stall = ref 0 in
  for _step = 1 to config.iters do
    let candidate = Mutate.apply rng ~abs ~first_phase !current in
    let c_eval = Cost.eval cost candidate in
    let delta = c_eval.Cost.cost -. !current_eval.Cost.cost in
    let accept = delta <= 0.0 || Rng.uniform rng < Float.exp (-.delta /. !temp) in
    if accept then begin
      current := candidate;
      current_eval := c_eval;
      incr accepts
    end;
    let improved =
      c_eval.Cost.feasible
      &&
      match !best with
      | Some (_, b) -> c_eval.Cost.cost < b.Cost.cost -. 1e-12
      | None -> true
    in
    if improved then begin
      best := Some (candidate, c_eval);
      stall := 0
    end
    else incr stall;
    (* Stalled chains teleport back to their best feasible point: the
       walk keeps its (now cooler) temperature but stops burning steps in
       a worse basin. *)
    (if config.restart_stall > 0 && !stall >= config.restart_stall then
       match !best with
       | Some (b, be) ->
           current := b;
           current_eval := be;
           incr restarts;
           stall := 0
       | None -> stall := 0);
    temp := Float.max config.min_temp (!temp *. config.decay)
  done;
  { best = !best; steps = config.iters; accepts = !accepts; restarts = !restarts }

let polish ~cost ~first_phase sched =
  let abs = Cost.abs cost in
  let n_phases = Cost.n_phases cost in
  let n_abs = Array.length abs in
  (* One private copy, changed in place: a candidate sets one cell or
     swaps two rows, is priced (the untouched phases are memo hits) and
     is undone.  Only a candidate that beats the pass's best so far is
     copied. *)
  let current = ref (copy_sched sched) in
  let current_eval = ref (Cost.eval cost !current) in
  let improved = ref true in
  (* Each accepted move strictly improves a bounded cost over a finite
     space, so this terminates; the pass cap is a safety net only. *)
  let passes = ref 0 in
  let max_passes = Stdlib.max 16 (4 * n_phases * n_abs * 8) in
  while !improved && !passes < max_passes do
    incr passes;
    improved := false;
    let best_move = ref None in
    let consider () =
      let e = Cost.eval cost !current in
      if e.Cost.feasible && e.Cost.cost < !current_eval.Cost.cost -. 1e-12 then
        match !best_move with
        | Some (_, be) when be.Cost.cost <= e.Cost.cost -> ()
        | _ -> best_move := Some (copy_sched !current, e)
    in
    let try_step phase ab delta =
      let row = !current.(phase) in
      let old = row.(ab) in
      let l = old + delta in
      if l >= 0 && l <= abs.(ab).Ab.max_level then begin
        row.(ab) <- l;
        consider ();
        row.(ab) <- old
      end
    in
    for phase = first_phase to n_phases - 1 do
      for ab = 0 to n_abs - 1 do
        try_step phase ab 1;
        try_step phase ab (-1)
      done
    done;
    (* Phase-pair swaps widen the neighborhood past what +-1 steps can
       reach: [A|B] and [B|A] are distinct steepest-descent basins under
       single-cell moves, and chains that found either must collapse to
       the same optimum for best-of-chains to be chain-count invariant. *)
    let swap p q =
      let tmp = !current.(p) in
      !current.(p) <- !current.(q);
      !current.(q) <- tmp
    in
    for p = first_phase to n_phases - 2 do
      for q = p + 1 to n_phases - 1 do
        if not (Config_space.equal !current.(p) !current.(q)) then begin
          swap p q;
          consider ();
          swap p q
        end
      done
    done;
    match !best_move with
    | Some (candidate, e) ->
        current := candidate;
        current_eval := e;
        improved := true
    | None -> ()
  done;
  (!current, !current_eval)
