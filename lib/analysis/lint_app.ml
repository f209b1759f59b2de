module App = Opprox_sim.App
module Ab = Opprox_sim.Ab
module Config_space = Opprox_sim.Config_space
module D = Diagnostic

let enumeration_bound = 100_000

let check_vector ~app ~what params v =
  let arity_diag =
    if Array.length v <> Array.length params then
      [
        D.v ~app ~detail:what ~code:"APP006" D.Error "%s has arity %d, param_names has %d" what
          (Array.length v) (Array.length params);
      ]
    else []
  in
  let finite_diags =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun i x ->
              if Float.is_finite x then None
              else
                Some
                  (D.v ~app ~detail:(Printf.sprintf "%s[%d]" what i) ~code:"APP005" D.Error
                     "non-finite value %h in %s" x what))
            v))
  in
  arity_diag @ finite_diags

let check_app (app : App.t) =
  let name = app.App.name in
  let abs = app.App.abs in
  let dup_abs =
    (* Quadratic, but AB sets are tiny (paper: 2-4 per application). *)
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun i (ab : Ab.t) ->
              let earlier = Array.sub abs 0 i in
              if Array.exists (fun (b : Ab.t) -> b.Ab.name = ab.Ab.name) earlier then
                Some
                  (D.v ~app:name ~ab:i ~code:"APP001" D.Error
                     "duplicate AB name %S (per-AB local models would be confused)" ab.Ab.name)
              else None)
            abs))
  in
  let bad_levels =
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun i (ab : Ab.t) ->
              if ab.Ab.max_level < 1 then
                Some
                  (D.v ~app:name ~ab:i ~code:"APP002" D.Error "AB %S has max_level %d (< 1)"
                     ab.Ab.name ab.Ab.max_level)
              else None)
            abs))
  in
  let space =
    (* [count] multiplies (max_level + 1) per AB and saturates at
       [max_int]; a non-positive result means an AB without levels
       (APP002), so the space is empty. *)
    let count = Config_space.count abs in
    if count < 1 then
      [ D.v ~app:name ~code:"APP003" D.Error "joint configuration space count is %d" count ]
    else if count > enumeration_bound then
      [
        D.v ~app:name ~code:"APP004" D.Info
          "joint configuration space has %s%d points (> %d); exhaustive passes are skipped and \
           plans come from greedy or stochastic search"
          (if count = max_int then "at least " else "")
          count enumeration_bound;
      ]
    else []
  in
  let inputs =
    check_vector ~app:name ~what:"default_input" app.App.param_names app.App.default_input
    @ List.concat
        (Array.to_list
           (Array.mapi
              (fun i v ->
                check_vector ~app:name
                  ~what:(Printf.sprintf "training_inputs[%d]" i)
                  app.App.param_names v)
              app.App.training_inputs))
  in
  let no_training =
    if Array.length app.App.training_inputs = 0 then
      [
        D.v ~app:name ~code:"APP007" D.Warning
          "no training inputs declared; models cannot be fit for this application";
      ]
    else []
  in
  dup_abs @ bad_levels @ space @ inputs @ no_training

let check_registry apps =
  let rec dups seen = function
    | [] -> []
    | (app : App.t) :: rest ->
        if List.mem app.App.name seen then
          D.v ~app:app.App.name ~code:"APP008" D.Error
            "duplicate application name %S in the registry (find would silently shadow)"
            app.App.name
          :: dups seen rest
        else dups (app.App.name :: seen) rest
  in
  dups [] apps
