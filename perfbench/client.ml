(* The load side: spawn [rw serve --listen] on a Unix socket, drive it
   over two connections in a closed loop, and stop it.

   Every timestamp is [Monotonic_clock.now] (nanoseconds, monotonic). *)

module Json = Rw_service.Json

let now = Monotonic_clock.now
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let s_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9

type server = { pid : int; sock : string; mutable running : bool }

(* Servers still running when the benchmark exits early, or is
   interrupted, are killed and reaped, so no process outlives a run. *)
let live : server list ref = ref []

let reap ?(grace = 10.0) srv =
  if srv.running then begin
    let t0 = now () in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
      | 0, _ when s_since t0 < grace ->
        Unix.sleepf 0.005;
        wait ()
      | 0, _ ->
        (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] srv.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    wait ();
    srv.running <- false;
    live := List.filter (fun s -> s != srv) !live
  end

let () =
  at_exit (fun () ->
      List.iter
        (fun s ->
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap ~grace:0.0 s)
        !live);
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigint; Sys.sigterm ]

let spawn ~rw ~sock ~store ~log =
  (try Sys.remove sock with Sys_error _ -> ());
  let store_args = match store with Some p -> [ "--store"; p ] | None -> [ "--no-store" ] in
  let argv = Array.of_list ([ rw; "serve"; "--listen"; sock; "--jobs"; "2" ] @ store_args) in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process rw argv null null err in
  Unix.close null;
  Unix.close err;
  let srv = { pid; sock; running = true } in
  live := srv :: !live;
  srv

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable busy : (int * int64) option;  (** step index, send time *)
}

exception Conn_error of string

let connect ?(timeout = 60.0) srv =
  let t0 = now () in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX srv.sock) with
    | () -> { fd; buf = Buffer.create 4096; busy = None }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
      | 0, _ -> ()
      | _ ->
        srv.running <- false;
        raise (Conn_error "server exited before listening"));
      if s_since t0 > timeout then raise (Conn_error "server did not listen");
      Unix.sleepf 0.0002;
      go ()
  in
  go ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Read until the one outstanding reply line is complete. *)
let read_some c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> raise (Conn_error "connection closed")
  | k ->
    Buffer.add_subbytes c.buf chunk 0 k;
    Bytes.get chunk (k - 1) = '\n'
  | exception Unix.Unix_error (e, _, _) -> raise (Conn_error (Unix.error_message e))

let take_line c =
  let s = Buffer.sub c.buf 0 (Buffer.length c.buf - 1) in
  Buffer.clear c.buf;
  s

(* Send [lines] in order over [conns], at most one request in flight
   per connection. A barrier step waits until nothing is in flight and
   holds every later step until its reply is in. [on_reply i rtt_ms
   line] sees each reply as it completes. *)
let run conns (steps : Ops.step array) (lines : string array) ~on_reply =
  let n = Array.length steps in
  let next = ref 0 and inflight = ref 0 and barrier_out = ref false and last = ref 0 in
  let send k i =
    let c = conns.(k) in
    last := k;
    c.busy <- Some (i, now ());
    incr inflight;
    incr next;
    try write_all c.fd lines.(i)
    with Unix.Unix_error (e, _, _) -> raise (Conn_error (Unix.error_message e))
  in
  let rec fill () =
    if !next < n && not !barrier_out then
      if Ops.barrier steps.(!next).Ops.op then begin
        if !inflight = 0 then begin
          barrier_out := true;
          send 0 !next
        end
      end
      else
        (* Queries take turns across the idle connections. *)
        let m = Array.length conns in
        match List.find_opt (fun k -> conns.(k).busy = None) (List.init m (fun j -> (!last + 1 + j) mod m)) with
        | Some k ->
          send k !next;
          fill ()
        | None -> ()
  in
  while !next < n || !inflight > 0 do
    fill ();
    let fds = Array.to_list conns |> List.filter (fun c -> c.busy <> None) |> List.map (fun c -> c.fd) in
    let ready =
      match Unix.select fds [] [] (-1.0) with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun fd ->
        let c = Array.to_list conns |> List.find (fun c -> c.fd = fd) in
        if read_some c then begin
          let t1 = now () in
          let i, t0 = Option.get c.busy in
          c.busy <- None;
          decr inflight;
          if Ops.barrier steps.(i).Ops.op then barrier_out := false;
          on_reply i (ms_between t0 t1) (take_line c)
        end)
      ready
  done

(* The server's peak resident set, [VmHWM], in MB. *)
let peak_rss_mb srv =
  let ic = open_in (Printf.sprintf "/proc/%d/status" srv.pid) in
  let rec find () =
    match input_line ic with
    | l when String.starts_with ~prefix:"VmHWM:" l ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Idle connections are closed first: the server's connection threads
   notice a shutdown only between reads, so an open idle one delays the
   exit by its poll interval. *)
let shutdown srv conns =
  Array.iteri (fun i c -> if i > 0 then try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  (try
     let c = conns.(0) in
     write_all c.fd (Json.to_string (Json.Obj [ ("op", Json.String "shutdown") ]) ^ "\n");
     while not (read_some c) do () done
   with Conn_error _ | Unix.Unix_error _ -> ());
  (try Unix.close conns.(0).fd with Unix.Unix_error _ -> ());
  reap srv
