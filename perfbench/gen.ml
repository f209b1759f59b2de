(* Open-loop load generator over the daemon's Unix socket.

   The arrival schedule is fixed before the window opens: every item has
   a due time and a pre-encoded frame, so the generator does no codec
   work while it measures.  Latency is taken from the due time, not from
   the send, so a stall is charged to every request queued behind it;
   how late the generator itself ran is kept per request (sent - due).

   Two modes:
   - submitter: one connection per request, as [opprox request] and
     [opprox submit] do.  Each client domain multiplexes its in-flight
     connections with select, so a slow reply never delays the next
     send.
   - persistent: one long-lived connection per domain with pipelined
     frames, as [opprox run --via] holds.

   At most two client domains run: the calling one and one spawned. *)

type item = { id : int; due_us : float; payload : string; conn : int }

type result = {
  mutable sent_us : float;  (** relative to the window start; nan: never sent *)
  mutable reply_us : float;  (** nan: no reply *)
  mutable reply : string;  (** raw reply payload *)
  mutable error : string;  (** "" when the exchange completed *)
}

let now_us = Opprox_obs.Trace.now_us

let new_results n =
  Array.init n (fun _ -> { sent_us = nan; reply_us = nan; reply = ""; error = "" })

(* Poisson arrivals at [rate] per second over [dur_s], starting at
   [start_us]. *)
let poisson rng ~rate ~dur_s ~start_us =
  let rec go t acc =
    let t = t +. (-.log (1.0 -. Opprox_util.Rng.uniform rng) /. rate) in
    if t >= dur_s then List.rev acc else go t ((start_us +. (t *. 1e6)) :: acc)
  in
  Array.of_list (go 0.0 [])

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  b

(* Incoming byte stream → complete frame payloads. *)
type reader = { buf : Buffer.t; chunk : Bytes.t }

let reader () = { buf = Buffer.create 4096; chunk = Bytes.create 65536 }

(* Read what is available; [Some frames] (possibly empty) or [None] on
   EOF. *)
let read_frames r fd =
  match Unix.read fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> None
  | k ->
      Buffer.add_subbytes r.buf r.chunk 0 k;
      let s = Buffer.contents r.buf in
      let rec take off acc =
        if String.length s - off < 4 then (off, List.rev acc)
        else
          let len = Int32.to_int (String.get_int32_be s off) in
          if String.length s - off - 4 < len then (off, List.rev acc)
          else take (off + 4 + len) (String.sub s (off + 4) len :: acc)
      in
      let off, frames = take 0 [] in
      Buffer.clear r.buf;
      Buffer.add_substring r.buf s off (String.length s - off);
      Some frames
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> Some []

let rec write_all fd b off =
  if off < Bytes.length b then
    let k = Unix.write fd b off (Bytes.length b - off) in
    write_all fd b (off + k)

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let select_read fds timeout =
  match Unix.select fds [] [] (Float.max 0.0 timeout) with
  | r, _, _ -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Submitter mode for one domain.  [items] sorted by due time. *)
let submitter ~socket ~t0 ~limit_us (items : item array) (res : result array) =
  let max_open = 200 in
  let n = Array.length items in
  let next = ref 0 in
  let open_ = Hashtbl.create 64 in
  let rel () = now_us () -. t0 in
  let finish fd id err =
    Hashtbl.remove open_ fd;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if err <> "" then res.(id).error <- err
  in
  while (!next < n || Hashtbl.length open_ > 0) && rel () < limit_us do
    while !next < n && items.(!next).due_us <= rel () && Hashtbl.length open_ < max_open do
      let it = items.(!next) in
      incr next;
      let r = res.(it.id) in
      r.sent_us <- rel ();
      match connect socket with
      | fd -> (
          match write_all fd (frame it.payload) 0 with
          | () ->
              Unix.set_nonblock fd;
              Hashtbl.replace open_ fd (it.id, reader ())
          | exception Unix.Unix_error (e, _, _) ->
              Unix.close fd;
              r.error <- "send: " ^ Unix.error_message e)
      | exception Unix.Unix_error (e, _, _) -> r.error <- "connect: " ^ Unix.error_message e
    done;
    let wait =
      if !next < n && Hashtbl.length open_ < max_open then (items.(!next).due_us -. rel ()) /. 1e6
      else 0.05
    in
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) open_ [] in
    let ready =
      if fds = [] then begin
        if wait > 0.0 then Unix.sleepf (Float.min wait 0.05);
        []
      end
      else select_read fds (Float.min wait 0.05)
    in
    List.iter
      (fun fd ->
        let id, rd = Hashtbl.find open_ fd in
        match read_frames rd fd with
        | Some [] -> ()
        | Some (p :: _) ->
            res.(id).reply_us <- rel ();
            res.(id).reply <- p;
            finish fd id ""
        | None -> finish fd id "closed without a reply"
        | exception Unix.Unix_error (e, _, _) -> finish fd id ("recv: " ^ Unix.error_message e))
      ready
  done;
  Hashtbl.iter
    (fun fd (id, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      res.(id).error <- "timeout")
    open_;
  for i = !next to n - 1 do
    res.(items.(i).id).error <- "never sent"
  done

(* Persistent mode for one connection: frames are written when due
   (pipelined, never waiting for replies) and replies are matched to
   requests in order.  [items] sorted by due time. *)
let persistent ~fd ~t0 ~limit_us (items : item array) (res : result array) =
  Unix.set_nonblock fd;
  let n = Array.length items in
  let rel () = now_us () -. t0 in
  let next = ref 0 in
  let out = Buffer.create 65536 in
  let out_off = ref 0 in
  (* frames appended but not yet fully written: (id, end offset) *)
  let unsent = Queue.create () in
  let waiting = Queue.create () in
  let written = ref 0 and appended = ref 0 in
  let rd = reader () in
  let eof = ref false in
  while (!next < n || not (Queue.is_empty waiting)) && (not !eof) && rel () < limit_us do
    while !next < n && items.(!next).due_us <= rel () do
      let it = items.(!next) in
      incr next;
      let b = frame it.payload in
      Buffer.add_bytes out b;
      appended := !appended + Bytes.length b;
      Queue.push (it.id, !appended) unsent;
      Queue.push it.id waiting
    done;
    let pending_out = Buffer.length out - !out_off in
    let wait = if !next < n then (items.(!next).due_us -. rel ()) /. 1e6 else 0.05 in
    let r, w, _ =
      match
        Unix.select [ fd ] (if pending_out > 0 then [ fd ] else []) [] (Float.max 0.0 (Float.min wait 0.05))
      with
      | x -> x
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if w <> [] then begin
      (match Unix.write_substring fd (Buffer.contents out) !out_off pending_out with
      | k ->
          out_off := !out_off + k;
          written := !written + k
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ());
      while (not (Queue.is_empty unsent)) && snd (Queue.peek unsent) <= !written do
        let id, _ = Queue.pop unsent in
        res.(id).sent_us <- rel ()
      done;
      if !out_off = Buffer.length out then begin
        Buffer.clear out;
        out_off := 0
      end
    end;
    if r <> [] then
      match read_frames rd fd with
      | Some frames ->
          List.iter
            (fun p ->
              if not (Queue.is_empty waiting) then begin
                let id = Queue.pop waiting in
                res.(id).reply_us <- rel ();
                res.(id).reply <- p
              end)
            frames
      | None -> eof := true
      | exception Unix.Unix_error (e, _, _) ->
          eof := true;
          Queue.iter (fun id -> res.(id).error <- "recv: " ^ Unix.error_message e) waiting
  done;
  Queue.iter (fun id -> if res.(id).error = "" then res.(id).error <- "no reply") waiting;
  for i = !next to n - 1 do
    res.(items.(i).id).error <- "never sent"
  done;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Run [f 0] here and [f 1] on a second domain; both see the same
   window start. *)
let two_domains f =
  let d = Domain.spawn (fun () -> f 1) in
  let a = try Ok (f 0) with e -> Error e in
  let b = try Ok (Domain.join d) with e -> Error e in
  match (a, b) with
  | Ok (), Ok () -> ()
  | Error e, _ | _, Error e -> raise e

(* Submitter traffic from two client domains; arrivals alternate between
   them. *)
let run_submitter ~socket ~grace_s (items : item array) =
  let res = new_results (Array.length items) in
  let part k = Array.of_list (List.filter (fun it -> it.id mod 2 = k) (Array.to_list items)) in
  let parts = [| part 0; part 1 |] in
  let last = Array.fold_left (fun m it -> Float.max m it.due_us) 0.0 items in
  let t0 = now_us () in
  two_domains (fun k ->
      submitter ~socket ~t0 ~limit_us:(last +. (grace_s *. 1e6)) parts.(k) res);
  res

(* Persistent traffic: connection [k] carries the items with [conn = k].
   Connections are opened in index order before the window starts, so
   the server accepts them in that order. *)
let run_persistent ~socket ~conns ~grace_s (items : item array) =
  let res = new_results (Array.length items) in
  let fds = Array.init conns (fun _ -> connect socket) in
  let parts =
    Array.init conns (fun k ->
        Array.of_list (List.filter (fun it -> it.conn = k) (Array.to_list items)))
  in
  let last = Array.fold_left (fun m it -> Float.max m it.due_us) 0.0 items in
  let t0 = now_us () in
  (if conns = 1 then persistent ~fd:fds.(0) ~t0 ~limit_us:(last +. (grace_s *. 1e6)) parts.(0) res
   else
     two_domains (fun k ->
         persistent ~fd:fds.(k) ~t0 ~limit_us:(last +. (grace_s *. 1e6)) parts.(k) res));
  res

(* Closed loop, one domain, one connection per request: each request is
   sent when the previous reply has arrived.  Used for warm-up, where
   only the replies matter. *)
let run_closed ~socket (items : item array) =
  let res = new_results (Array.length items) in
  let t0 = now_us () in
  Array.iter
    (fun it ->
      let r = res.(it.id) in
      r.sent_us <- now_us () -. t0;
      match connect socket with
      | exception Unix.Unix_error (e, _, _) -> r.error <- "connect: " ^ Unix.error_message e
      | fd ->
          let rd = reader () in
          let rec recv () =
            match read_frames rd fd with
            | Some [] -> recv ()
            | Some (p :: _) ->
                r.reply_us <- now_us () -. t0;
                r.reply <- p
            | None -> r.error <- "closed without a reply"
          in
          (try
             write_all fd (frame it.payload) 0;
             recv ()
           with Unix.Unix_error (e, _, _) -> r.error <- Unix.error_message e);
          Unix.close fd)
    items;
  res
