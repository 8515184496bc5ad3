type limits = {
  mem_bytes : int option;
  cpu_seconds : int option;
  wall_seconds : float;
}

let default_limits =
  { mem_bytes = Some (1 lsl 30); cpu_seconds = Some 20; wall_seconds = 30. }

let degraded_limits l =
  {
    mem_bytes = l.mem_bytes;
    cpu_seconds = Option.map (fun c -> max 1 (c / 2)) l.cpu_seconds;
    wall_seconds = Float.max 0.5 (l.wall_seconds /. 2.);
  }

(* Frames in either direction are small (a request line, a verdict, at
   most a few batches of witnesses); anything bigger than this is
   garbage. *)
let frame_cap = 16 * 1024 * 1024

(* Set in every sandbox child, so the synthetic crasher can never fire in
   the daemon itself. *)
let in_child = ref false

(* ------------------------------------------------------------------ *)
(* Length-prefixed frames                                               *)
(* ------------------------------------------------------------------ *)

let rec write_all fd bytes off len =
  if len > 0 then begin
    match Unix.write fd bytes off len with
    | n -> write_all fd bytes (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd bytes off len
  end

let encode_frame payload =
  let len = String.length payload in
  let frame = Bytes.create (4 + len) in
  Bytes.set frame 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set frame 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set frame 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set frame 3 (Char.chr (len land 0xff));
  Bytes.blit_string payload 0 frame 4 len;
  frame

let write_frame fd payload =
  let frame = encode_frame payload in
  write_all fd frame 0 (Bytes.length frame)

(* ------------------------------------------------------------------ *)
(* Child side                                                           *)
(* ------------------------------------------------------------------ *)

(* The child inherited mutexes that may have been held by parent threads
   that no longer exist here; make the ones on the child's own code path
   safe before doing anything else. *)
let enter_child ~keep_counting =
  in_child := true;
  Telemetry.detach_after_fork ~keep_counting ();
  Fault.relock_after_fork ();
  List.iter
    (fun s -> try Sys.set_signal s Sys.Signal_default with _ -> ())
    [ Sys.sigterm; Sys.sigint ]

let apply_rlimits limits =
  (* Best effort on purpose: a child that cannot lower a limit is still
     under the parent watchdog, and raising here would bypass the result
     protocol. *)
  Option.iter (fun b -> ignore (Rlimit.set Rlimit.Address_space b)) limits.mem_bytes;
  Option.iter (fun s -> ignore (Rlimit.set Rlimit.Cpu_time s)) limits.cpu_seconds

let render payload =
  match Json.to_string payload with
  | s -> s
  | exception _ -> Protocol.fallback_line

let run_child ~limits ~id ~pipe_w compute =
  enter_child ~keep_counting:false;
  apply_rlimits limits;
  let payload =
    match compute () with
    | j -> j
    | exception e -> Protocol.error_of_exn ~id e
  in
  (try write_frame pipe_w (render payload) with _ -> ());
  (* _exit, not exit: at_exit would flush the parent's buffered stdio a
     second time from inside the child. *)
  Unix._exit 0

(* ------------------------------------------------------------------ *)
(* Parent side: watchdog read and death classification                  *)
(* ------------------------------------------------------------------ *)

type read_outcome =
  | Frame of string
  | Timed_out
  | Eof  (* pipe closed before a complete frame: child died mid-write *)
  | Garbage of string

(* Wait until [fd] is ready or [deadline] passes; an infinite deadline
   waits for good. *)
let rec await ~read fd ~deadline =
  let timeout =
    if deadline = Float.infinity then -1. (* select's "no timeout" *)
    else Float.max 0. (deadline -. Unix.gettimeofday ())
  in
  timeout <> 0.
  &&
  match
    if read then Unix.select [ fd ] [] [] timeout
    else Unix.select [] [ fd ] [] timeout
  with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ~read fd ~deadline
  | [], [], _ -> false
  | _ -> true

let read_result fd ~deadline =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 8192 in
  let rec fill need =
    if Buffer.length buf >= need then `Ok
    else if not (await ~read:true fd ~deadline) then `Timeout
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> `Eof
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        fill need
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill need
  in
  match fill 4 with
  | `Timeout -> Timed_out
  | `Eof -> Eof
  | `Ok -> (
    let b i = Char.code (Buffer.nth buf i) in
    let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if len > frame_cap then
      Garbage (Printf.sprintf "result frame length %d exceeds the cap" len)
    else
      match fill (4 + len) with
      | `Timeout -> Timed_out
      | `Eof -> Eof
      | `Ok -> Frame (Buffer.sub buf 4 len))

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let classify ~limits outcome status =
  match (outcome, status) with
  | Timed_out, _ ->
    Error
      ( Core.Error.Crash_watchdog,
        Printf.sprintf "no result within the %.3fs wall-clock watchdog"
          limits.wall_seconds )
  | _, Unix.WSIGNALED s when s = Sys.sigxcpu ->
    Error
      ( Core.Error.Crash_cpu,
        Printf.sprintf "killed by SIGXCPU (RLIMIT_CPU %s)"
          (match limits.cpu_seconds with
          | Some c -> Printf.sprintf "%ds" c
          | None -> "inherited") )
  | Frame payload, Unix.WEXITED 0 -> (
    match Json.parse ~max_bytes:frame_cap payload with
    | j -> Ok j
    | exception Json.Parse_error msg ->
      Error (Core.Error.Crash_protocol, "unparseable result frame: " ^ msg))
  | Garbage msg, _ -> Error (Core.Error.Crash_protocol, msg)
  | _, Unix.WSIGNALED s ->
    let detail =
      "killed by "
      ^ Core.Error.signal_name s
      ^
      if s = Sys.sigkill then " (chaos kill, kernel OOM killer, or external)"
      else ""
    in
    Error (Core.Error.Crash_signal s, detail)
  | _, Unix.WEXITED 0 ->
    Error
      ( Core.Error.Crash_protocol,
        "pipe closed before a complete result frame (half-written)" )
  | _, Unix.WEXITED c ->
    Error
      ( Core.Error.Crash_exit c,
        Printf.sprintf "worker exited with code %d before answering" c )
  | _, Unix.WSTOPPED s ->
    (* We never pass WUNTRACED, so this is unreachable; classify anyway
       rather than raising inside the boundary. *)
    Error (Core.Error.Crash_signal s, "worker stopped unexpectedly")

let kill_quietly pid = try Unix.kill pid Sys.sigkill with _ -> ()

let execute ~limits ~id compute =
  match Unix.pipe ~cloexec:true () with
  | exception e ->
    Error
      ( Core.Error.Crash_exit (-1),
        "could not create the result pipe: " ^ Printexc.to_string e )
  | pipe_r, pipe_w -> (
    match Unix.fork () with
    | exception e ->
      (try Unix.close pipe_r with _ -> ());
      (try Unix.close pipe_w with _ -> ());
      Error
        ( Core.Error.Crash_exit (-1),
          "could not fork a worker: " ^ Printexc.to_string e )
    | 0 ->
      (try Unix.close pipe_r with _ -> ());
      run_child ~limits ~id ~pipe_w compute
    | pid ->
      (try Unix.close pipe_w with _ -> ());
      (* The worker chaos site: a firing draw SIGKILLs the fresh child,
         simulating an OOM kill or machine fault at the worst moment. *)
      if Fault.fires Fault.Worker then kill_quietly pid;
      let deadline = Unix.gettimeofday () +. limits.wall_seconds in
      let outcome = read_result pipe_r ~deadline in
      (match outcome with
      | Timed_out | Garbage _ -> kill_quietly pid
      | Frame _ | Eof -> ());
      (try Unix.close pipe_r with _ -> ());
      let _, status = waitpid_retry pid in
      classify ~limits outcome status)

(* ------------------------------------------------------------------ *)
(* The persistent pool                                                  *)
(* ------------------------------------------------------------------ *)

type reply = { frames : Json.t list; report : (string * Json.t) list }

type proc = {
  pid : int;
  to_worker : Unix.file_descr;  (* request pipe, parent's end, non-blocking *)
  from_worker : Unix.file_descr;  (* reply pipe, parent's end *)
  mutable report : (string * Json.t) list;
}

type pool = {
  limits : limits;
  p_retry_nodes : int;
  max_workers : int;
  serve : node_cap:int option -> string -> reply;
  lock : Mutex.t;
  freed : Condition.t;
  mutable procs : proc list;  (* every live worker, idle or busy *)
  mutable idle : proc list;  (* most recently used first *)
  mutable closed : bool;
  mutable spawned : int;
  mutable retired : int;  (* healthy workers let go: surplus or drain *)
  mutable completed : int;
  mutable retries : int;
  mutable dumps : int;
  mutable c_signal : int;
  mutable c_oom : int;
  mutable c_cpu : int;
  mutable c_watchdog : int;
  mutable c_protocol : int;
  mutable c_exit : int;
}

let create_pool ?(limits = default_limits) ?(retry_nodes = 20_000)
    ?(max_workers = 1) ~serve () =
  {
    limits;
    p_retry_nodes = max 1 retry_nodes;
    max_workers = max 1 max_workers;
    serve;
    lock = Mutex.create ();
    freed = Condition.create ();
    procs = [];
    idle = [];
    closed = false;
    spawned = 0;
    retired = 0;
    completed = 0;
    retries = 0;
    dumps = 0;
    c_signal = 0;
    c_oom = 0;
    c_cpu = 0;
    c_watchdog = 0;
    c_protocol = 0;
    c_exit = 0;
  }

let pool_limits p = p.limits

let retry_nodes p = p.p_retry_nodes

let with_lock p f =
  Mutex.lock p.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock p.lock) f

type stats = {
  live : int;
  spawned : int;
  retired : int;
  completed : int;
  retries : int;
  dumps : int;
  crashes_total : int;
  crashes_signal : int;
  crashes_oom : int;
  crashes_cpu : int;
  crashes_watchdog : int;
  crashes_protocol : int;
  crashes_exit : int;
}

let stats p =
  with_lock p (fun () ->
      {
        live = List.length p.procs;
        spawned = p.spawned;
        retired = p.retired;
        completed = p.completed;
        retries = p.retries;
        dumps = p.dumps;
        crashes_total =
          p.c_signal + p.c_oom + p.c_cpu + p.c_watchdog + p.c_protocol
          + p.c_exit;
        crashes_signal = p.c_signal;
        crashes_oom = p.c_oom;
        crashes_cpu = p.c_cpu;
        crashes_watchdog = p.c_watchdog;
        crashes_protocol = p.c_protocol;
        crashes_exit = p.c_exit;
      })

let reports p =
  with_lock p (fun () ->
      List.filter_map
        (fun w -> if w.report = [] then None else Some w.report)
        p.procs)

(* The worker's loop: one request frame in, one reply frame out, until the
   parent closes the request pipe.  The first byte of a request says
   whether it is the degraded retry ('D') or a first attempt ('N'). *)
let worker_main p ~keep_counting ~requests ~replies =
  enter_child ~keep_counting;
  Option.iter
    (fun b -> ignore (Rlimit.set Rlimit.Address_space b))
    p.limits.mem_bytes;
  let rec loop () =
    match read_result requests ~deadline:Float.infinity with
    | Timed_out | Eof | Garbage _ -> Unix._exit 0
    | Frame msg ->
      let degraded = String.length msg > 0 && msg.[0] = 'D' in
      let line = if msg = "" then "" else String.sub msg 1 (String.length msg - 1) in
      let limits = if degraded then degraded_limits p.limits else p.limits in
      (* RLIMIT_CPU counts the worker's whole life, so the ceiling for
         this request is what it has used so far plus its allowance. *)
      Option.iter
        (fun c ->
          let t = Unix.times () in
          let used = Float.ceil (t.Unix.tms_utime +. t.Unix.tms_stime) in
          ignore (Rlimit.set_soft Rlimit.Cpu_time (int_of_float used + c)))
        limits.cpu_seconds;
      let node_cap = if degraded then Some p.p_retry_nodes else None in
      let reply =
        match p.serve ~node_cap line with
        | r -> r
        | exception e ->
          { frames = [ Protocol.error_of_exn ~id:Json.Null e ]; report = [] }
      in
      let counters =
        if not keep_counting then []
        else begin
          let totals = Telemetry.counter_totals () in
          Telemetry.reset ();
          List.map (fun (name, n) -> (name, Json.Int n)) totals
        end
      in
      let payload =
        Json.Obj
          [
            ("frames", Json.List reply.frames);
            ("report", Json.Obj reply.report);
            ("counters", Json.Obj counters);
          ]
      in
      match write_frame replies (render payload) with
      | () -> loop ()
      | exception _ -> Unix._exit 0
  in
  loop ()

let close_quietly fd = try Unix.close fd with _ -> ()

(* Fork one worker, with the pool lock held.  The child keeps only its
   own two pipe ends: a child holding another worker's reply pipe would
   keep the parent from ever seeing that worker's end of file, and one
   holding a client connection would keep the client from seeing the
   daemon close it. *)
let spawn p =
  (* A worker dying mid-request must surface as EPIPE on the request
     pipe, not kill the parent. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let cannot what e =
    Error (Core.Error.Crash_exit (-1), what ^ Printexc.to_string e)
  in
  match Unix.pipe ~cloexec:true () with
  | exception e -> cannot "could not create the request pipe: " e
  | req_r, req_w -> (
    match Unix.pipe ~cloexec:true () with
    | exception e ->
      List.iter close_quietly [ req_r; req_w ];
      cannot "could not create the reply pipe: " e
    | rep_r, rep_w -> (
      let keep_counting = Telemetry.enabled () in
      match Unix.fork () with
      | exception e ->
        List.iter close_quietly [ req_r; req_w; rep_r; rep_w ];
        cannot "could not fork a worker: " e
      | 0 ->
        Rlimit.close_fds_except req_r rep_w;
        (* Nor may it read the daemon's input or write its output. *)
        (try
           let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
           Unix.dup2 null Unix.stdin;
           Unix.dup2 null Unix.stdout;
           Unix.close null
         with Unix.Unix_error _ -> ());
        (* Whatever happens, the child never returns into the parent's
           code. *)
        (try worker_main p ~keep_counting ~requests:req_r ~replies:rep_w
         with _ -> ());
        Unix._exit 2
      | pid ->
        List.iter close_quietly [ req_r; rep_w ];
        Unix.set_nonblock req_w;
        let w = { pid; to_worker = req_w; from_worker = rep_r; report = [] } in
        p.procs <- w :: p.procs;
        p.spawned <- p.spawned + 1;
        Telemetry.count "serve.worker.spawn" 1;
        Ok w))

(* An idle worker, or a new one while the pool is below its size.  The
   degraded retry asks for a [fresh] worker: a pristine copy of the
   parent rather than one whose heap the failing request may share
   history with. *)
let acquire p ~fresh =
  with_lock p (fun () ->
      let rec go () =
        match p.idle with
        | _ when p.closed ->
          Error (Core.Error.Crash_exit (-1), "the worker pool is shut down")
        | w :: rest when not fresh ->
          p.idle <- rest;
          Ok w
        | _ when fresh || List.length p.procs < p.max_workers -> spawn p
        | _ ->
          Condition.wait p.freed p.lock;
          go ()
      in
      go ())

(* Reap a worker whose request pipe is closed: it exits at end of input,
   and one that does not within a grace period is killed. *)
let reap_after_eof pid =
  let deadline = Unix.gettimeofday () +. 2. in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        kill_quietly pid;
        waitpid_retry pid
      end
      else begin
        Unix.sleepf 0.001;
        go ()
      end
    | r -> r
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let forget p w =
  with_lock p (fun () ->
      p.procs <- List.filter (fun w' -> w' != w) p.procs;
      p.idle <- List.filter (fun w' -> w' != w) p.idle;
      Condition.signal p.freed)

(* Take a dead or misbehaving worker out of the pool and reap it;
   returns its exit status for classification. *)
let retire p w ~kill =
  forget p w;
  if kill then kill_quietly w.pid;
  close_quietly w.to_worker;
  close_quietly w.from_worker;
  snd (if kill then waitpid_retry w.pid else reap_after_eof w.pid)

let release p w ~report =
  let surplus =
    with_lock p (fun () ->
        w.report <-
          report @ List.filter (fun (k, _) -> not (List.mem_assoc k report)) w.report;
        if p.closed || List.length p.procs > p.max_workers then begin
          p.retired <- p.retired + 1;
          true
        end
        else begin
          p.idle <- w :: p.idle;
          Condition.signal p.freed;
          false
        end)
  in
  if surplus then ignore (retire p w ~kill:false)

let shutdown p =
  let idle =
    with_lock p (fun () ->
        p.closed <- true;
        let idle = p.idle in
        p.idle <- [];
        p.retired <- p.retired + List.length idle;
        idle)
  in
  List.iter (fun w -> ignore (retire p w ~kill:false)) idle

(* Write the whole request frame before [deadline]. *)
let send fd frame ~deadline =
  let len = Bytes.length frame in
  let rec go off =
    if off >= len then `Sent
    else
      match Unix.single_write fd frame off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        if await ~read:false fd ~deadline then go off else `Timeout
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> `Closed
  in
  go 0

let decode payload =
  match Json.parse ~max_bytes:frame_cap payload with
  | Json.Obj fields -> (
    let obj key =
      match List.assoc_opt key fields with Some (Json.Obj kvs) -> kvs | _ -> []
    in
    match List.assoc_opt "frames" fields with
    | Some (Json.List frames) -> Some (frames, obj "report", obj "counters")
    | _ -> None)
  | _ -> None
  | exception Json.Parse_error _ -> None

let note_crash p crash =
  with_lock p (fun () ->
      match crash with
      | Core.Error.Crash_signal _ -> p.c_signal <- p.c_signal + 1
      | Core.Error.Crash_oom -> p.c_oom <- p.c_oom + 1
      | Core.Error.Crash_cpu -> p.c_cpu <- p.c_cpu + 1
      | Core.Error.Crash_watchdog -> p.c_watchdog <- p.c_watchdog + 1
      | Core.Error.Crash_protocol -> p.c_protocol <- p.c_protocol + 1
      | Core.Error.Crash_exit _ -> p.c_exit <- p.c_exit + 1);
  Telemetry.count
    ("serve.worker.crash." ^ Core.Error.crash_class_name crash)
    1

(* A worker that detects its own crash condition (Out_of_memory under the
   rlimit ceiling) answers a typed worker_crash frame rather than dying;
   fold that into the same crash path as a real death so retry, dumps
   and counters treat both alike — and replace the worker, whose heap is
   no longer to be trusted. *)
let crash_of_response j =
  match Json.member "error" j with
  | Some (Json.String "worker_crash") ->
    let crash =
      match Json.string_member "crash" j with
      | Some name -> Core.Error.crash_class_of_name name
      | None -> None
    in
    let detail =
      Option.value
        (Json.string_member "message" j)
        ~default:"worker-reported crash"
    in
    Some (Option.value crash ~default:Core.Error.Crash_oom, detail)
  | _ -> None

let attempt p ~degraded line =
  let limits = if degraded then degraded_limits p.limits else p.limits in
  match acquire p ~fresh:degraded with
  | Error _ as e -> e
  | Ok w -> (
    (* The worker chaos site: a firing draw SIGKILLs the worker about to
       serve this request, simulating an OOM kill or machine fault. *)
    if Fault.fires Fault.Worker then kill_quietly w.pid;
    let deadline = Unix.gettimeofday () +. limits.wall_seconds in
    let outcome =
      match
        send w.to_worker
          (encode_frame ((if degraded then "D" else "N") ^ line))
          ~deadline
      with
      | `Sent -> read_result w.from_worker ~deadline
      | `Timeout -> Timed_out
      | `Closed -> Eof
    in
    let fail outcome ~kill = classify ~limits outcome (retire p w ~kill) in
    match outcome with
    | Frame payload -> (
      match decode payload with
      | None -> fail (Garbage "unparseable reply frame") ~kill:true
      | Some (frames, report, counters) -> (
        List.iter
          (function name, Json.Int n -> Telemetry.count name n | _ -> ())
          counters;
        match List.find_map crash_of_response frames with
        | Some crash ->
          ignore (retire p w ~kill:true);
          Error crash
        | None ->
          release p w ~report;
          Ok (Json.List frames)))
    | Timed_out | Garbage _ -> fail outcome ~kill:true
    | Eof -> fail Eof ~kill:false)

let supervise p ~id ~dump line =
  match attempt p ~degraded:false line with
  | Ok j ->
    with_lock p (fun () -> p.completed <- p.completed + 1);
    j
  | Error (crash1, detail1) -> (
    note_crash p crash1;
    with_lock p (fun () -> p.retries <- p.retries + 1);
    Telemetry.count "serve.worker.retry" 1;
    match attempt p ~degraded:true line with
    | Ok j ->
      with_lock p (fun () -> p.completed <- p.completed + 1);
      j
    | Error (crash2, detail2) ->
      note_crash p crash2;
      let detail =
        if detail1 = detail2 then detail2
        else Printf.sprintf "%s (first attempt: %s)" detail2 detail1
      in
      let path =
        match dump ~crash:crash2 ~detail ~attempts:2 with
        | p -> p
        | exception _ -> None
      in
      (match path with
      | Some _ ->
        with_lock p (fun () -> p.dumps <- p.dumps + 1);
        Telemetry.count "serve.worker.dump" 1
      | None -> ());
      let response =
        Protocol.error ~id
          (Core.Error.Worker_crash { crash = crash2; attempts = 2; detail })
      in
      (match (response, path) with
      | Json.Obj fields, Some path ->
        Json.Obj (fields @ [ ("dump", Json.String path) ])
      | _ -> response))

(* ------------------------------------------------------------------ *)
(* The synthetic crasher                                                *)
(* ------------------------------------------------------------------ *)

let test_abort_hook a =
  match Sys.getenv_opt "CQCSP_TEST_ABORT" with
  | _ when not !in_child -> ()
  | None | Some "" -> ()
  | Some spec -> (
    match String.split_on_char ':' spec with
    | [ action; rel ] ->
      let armed =
        match Relational.Structure.relation a rel with
        | r -> not (Relational.Relation.is_empty r)
        | exception Not_found -> false
      in
      if armed then begin
        match action with
        | "segv" -> Unix.kill (Unix.getpid ()) Sys.sigsegv
        | "abrt" -> Unix.kill (Unix.getpid ()) Sys.sigabrt
        | "kill" -> Unix.kill (Unix.getpid ()) Sys.sigkill
        | "exit" -> Unix._exit 3
        | "spin" ->
          let rec loop n = loop (Sys.opaque_identity (n + 1)) in
          ignore (loop 0)
        | _ -> ()
      end
    | _ -> ())
