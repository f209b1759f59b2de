(* Spawning and draining an [opprox serve] daemon at its default config. *)

module Protocol = Opprox_serve.Protocol
module Sexp = Opprox_util.Sexp

type t = { pid : int; log : string }

let spawn ~exe ~socket ~models ~corpus ~log =
  let args =
    [ exe; "serve"; "--socket"; socket; "--metrics-sexp"; "--corpus"; corpus ]
    @ List.concat_map (fun m -> [ "--models"; m ]) models
  in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process exe (Array.of_list args) null out out in
  Unix.close out;
  Unix.close null;
  { pid; log }

let alive d =
  match Unix.waitpid [ Unix.WNOHANG ] d.pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* Send [payload] on a fresh connection once the daemon listens; returns
   the seconds from [t_spawn] to the reply. *)
let first_reply d ~socket ~t_spawn ~payload =
  let deadline = t_spawn +. 60.0 in
  let rec attempt () =
    if Unix.gettimeofday () > deadline then failwith "daemon did not answer within 60 s";
    match Gen.connect socket with
    | fd ->
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Gen.write_all fd (Gen.frame payload) 0;
            match Protocol.read_frame fd with
            | Some _ -> Unix.gettimeofday () -. t_spawn
            | None -> failwith "daemon closed the first connection")
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if not (alive d) then failwith ("daemon exited during start-up; see " ^ d.log);
        Unix.sleepf 0.002;
        attempt ()
  in
  attempt ()

let vm_hwm_kb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  let ic = open_in path in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* CPU time (user + system, all threads) the process has used so far, in
   seconds, from /proc/<pid>/stat.  The kernel reports it in clock ticks
   of 1/100 s. *)
let cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
  (* the command name is parenthesised and may hold spaces *)
  let rest = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  match String.split_on_char ' ' rest with
  | _state :: fields ->
      (* utime and stime are fields 14 and 15 of the line, 12 and 13 here *)
      let f k = float_of_string (List.nth fields (k - 4)) in
      (f 14 +. f 15) /. 100.0
  | [] -> failwith "malformed /proc/<pid>/stat"

(* SIGTERM, wait for the drain (killing after 30 s), and return the
   counters the daemon dumped with --metrics-sexp. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid);
        failwith "daemon did not drain within 30 s"
    | _, Unix.WEXITED 0 -> ()
    | _, _ -> failwith ("daemon exited abnormally; see " ^ d.log)
  in
  wait ();
  let text = Sexp.read_file d.log in
  (* the dump is the last multi-line s-expression of the log *)
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let start = ref (-1) in
  Array.iteri (fun i l -> if String.length l > 2 && String.sub l 0 2 = "((" then start := i) lines;
  let counters = Hashtbl.create 64 in
  (match !start with
  | i when i >= 0 ->
      let last = String.concat "\n" (Array.to_list (Array.sub lines i (Array.length lines - i))) in
      List.iter
        (fun e ->
          match Sexp.to_list e with
          | [ name; kind; v ] when Sexp.to_string_atom kind = "counter" ->
              Hashtbl.replace counters (Sexp.to_string_atom name) (float_of_int (Sexp.to_int v))
          | [ name; kind; v ] when Sexp.to_string_atom kind = "histogram" ->
              Hashtbl.replace counters
                (Sexp.to_string_atom name ^ ".count")
                (float_of_int (Sexp.to_int (Sexp.field v "count")))
          | _ -> ())
        (Sexp.to_list (Sexp.of_string last))
  | _ -> failwith ("daemon printed no metrics dump; see " ^ d.log));
  counters

let counter tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)
