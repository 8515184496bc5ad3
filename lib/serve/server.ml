type config = {
  cache : Cache.t;
  ceiling_nodes : int option;
  ceiling_timeout : float option;
  default_nodes : int option;
  default_timeout : float option;
  cancel : bool ref;
  max_frame_bytes : int;
  admit : unit -> [ `Go | `Shed of string | `Cancelled ];
  release : unit -> unit;
  sandbox : Worker.pool option;
  spool_dir : string option;
  threads : int;
  preprocess : bool;
  latency : Latency.t;
}

let default_config ?(cache_capacity = 64) ?(preprocess = true) () =
  {
    cache = Cache.create ~preprocess ~capacity:cache_capacity ();
    ceiling_nodes = None;
    ceiling_timeout = None;
    default_nodes = None;
    default_timeout = None;
    cancel = ref false;
    max_frame_bytes = 1 lsl 20;
    admit = (fun () -> `Go);
    release = (fun () -> ());
    sandbox = None;
    spool_dir = None;
    threads = 1;
    preprocess;
    latency = Latency.create ();
  }

(* Members of a batch frame may solve on a worker or in process; the
   largest group shares one watchdog wall-clock, so batches are bounded
   to keep a single frame from monopolising a worker slot. *)
let max_batch = 64

(* ------------------------------------------------------------------ *)
(* The request handler — the isolation boundary                         *)
(* ------------------------------------------------------------------ *)

(* Per-request budget: the request's own limits (or the server defaults)
   clamped by the server-wide ceilings, sharing the server cancel flag so
   shutdown unwinds in-flight solves. *)
let budget_for cfg ~max_nodes ~timeout =
  let clamp requested ceiling default mn =
    match
      ( (match requested with Some v -> Some v | None -> default),
        ceiling )
    with
    | Some v, Some c -> Some (mn v c)
    | None, c -> c
    | v, None -> v
  in
  Core.Budget.create
    ?max_nodes:(clamp max_nodes cfg.ceiling_nodes cfg.default_nodes min)
    ?timeout:(clamp timeout cfg.ceiling_timeout cfg.default_timeout Float.min)
    ~cancel:cfg.cancel ()

let parse_structure ~what text =
  match Relational.Structure_text.parse text with
  | s -> s
  | exception Relational.Structure_text.Parse_error (pos, msg) ->
    Core.Error.bad_input "bad %s structure at %s: %s" what
      (Relational.Source_position.to_string pos)
      msg

let parse_query ~what text =
  match Cq.Parser.parse text with
  | q -> q
  | exception Cq.Parser.Parse_error (pos, msg) ->
    Core.Error.bad_input "bad query %s at %s: %s" what
      (Relational.Source_position.to_string pos)
      msg

let attempts_nodes attempts =
  List.fold_left
    (fun acc { Core.Solver.nodes; _ } -> acc + nodes)
    0 attempts

(* The template side routed through the cache once: the interned
   structure, its cached core retraction, and the cache status to echo
   in responses.  A poisoned template solves raw and uncored. *)
let resolve_template cfg b =
  let lookup, _fp = Cache.lookup cfg.cache b in
  match lookup with
  | Cache.Hit (interned, core) -> (interned, core, "hit")
  | Cache.Miss (interned, core) -> (interned, core, "miss")
  | Cache.Poisoned _ -> (b, Preprocess.identity_retraction b, "poisoned")

(* The in-process solve of one request against an already-resolved
   template.  [certify] re-derives the verdict's certificate with the
   trusted checker — a rejection is an internal error, raised and mapped
   at the boundary like everything else.  [cfg.threads] > 1 races the
   portfolio routes on a domain pool. *)
let solve_now cfg ~id ~op ~certify ~max_nodes ~timeout a
    (b, core, cache_status) =
  let budget = budget_for cfg ~max_nodes ~timeout in
  Fault.trip Fault.Solve;
  let t0 = Unix.gettimeofday () in
  (* Solve against the cached core of the template and lift the result
     back to the raw template: witnesses compose with the retraction's
     embed, refutations gain the target-side via-preprocess step — so
     certification below still runs against [(a, b)] as the client sent
     it (modulo interning). *)
  let r =
    Core.Solver.lift_target core
      (Core.Solver.solve ~budget ~threads:cfg.threads ~preprocess:cfg.preprocess a
         core.Preprocess.structure)
  in
  (* Microsecond precision is plenty; full-precision floats bloat frames. *)
  let elapsed_ms = Float.round (1e6 *. (Unix.gettimeofday () -. t0)) /. 1000. in
  let certified =
    if not certify then None
    else
      match Core.Solver.certificate r with
      | None -> None
      | Some c ->
        if Certificate.check a b c then Some true
        else
          Core.Error.internal
            "the checker rejected the %s certificate of route %s"
            (Certificate.describe c)
            (Core.Solver.route_name r.Core.Solver.route)
  in
  Protocol.ok_verdict ~id ~op ~verdict:r.Core.Solver.verdict
    ~route:(Core.Solver.route_name r.Core.Solver.route)
    ~cache:cache_status
    ~nodes:(attempts_nodes r.Core.Solver.attempts)
    ~elapsed_ms ~certified

(* File one response into the per-route latency histogram.  The solve's
   own [elapsed_ms] is preferred when the response carries one (so a
   sandboxed solve reports worker-side time, not pipe overhead); error
   and crash responses land under route "none" with the caller's
   wall-clock. *)
let record_latency cfg ~wall_ms resp =
  (match resp with
  | Json.Obj fields ->
    let route =
      match List.assoc_opt "route" fields with
      | Some (Json.String r) -> r
      | _ -> "none"
    in
    let ms =
      match List.assoc_opt "elapsed_ms" fields with
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | _ -> wall_ms
    in
    Latency.record cfg.latency ~route ms
  | _ -> ());
  resp

let dump_for cfg ~line pool ~crash ~detail ~attempts =
  match cfg.spool_dir with
  | None -> None
  | Some dir ->
    Some
      (Dump.write ~dir
         (Dump.make ~line ~crash ~detail ~attempts
            ~limits:(Worker.pool_limits pool)))

(* A worker's answer for one request, re-keyed under the request's id: a
   crash response is one object that answers for every request it took
   down. *)
let as_response id = function
  | Json.Obj fields ->
    Json.Obj (("id", id) :: List.filter (fun (k, _) -> k <> "id") fields)
  | _ -> Protocol.error ~id (Core.Error.Internal "malformed worker reply")

(* ------------------------------------------------------------------ *)
(* Streamed enumeration                                                 *)
(* ------------------------------------------------------------------ *)

(* Server-side answer ceilings: a request without a limit streams at
   most [default_enumerate_limit] answers, and an explicit limit is
   clamped to [max_enumerate_limit] — the daemon must never let one
   request monopolise a connection with an astronomically large answer
   set.  The final frame's ["complete"] field tells the client whether
   the stream was truncated. *)
let default_enumerate_limit = 1000
let max_enumerate_limit = 10_000
let default_enumerate_batch = 64

(* Drive the stream against the {e interned} template — never the cached
   core: answer sets (unlike verdicts) are not invariant under core
   retraction.  Full ["answers"] frames of [batch] witnesses go through
   [emit_frame] as they fill; the final frame is returned.  Pulling one
   node past the limit distinguishes "exactly limit answers exist"
   (complete) from a truncated stream. *)
let enumerate_now cfg ~emit_frame ~id ~max_nodes ~timeout ~limit ~batch a
    (tmpl, _core, cache_status) =
  let budget = budget_for cfg ~max_nodes ~timeout in
  Fault.trip Fault.Solve;
  let t0 = Unix.gettimeofday () in
  let limit =
    min max_enumerate_limit
      (Option.value ~default:default_enumerate_limit limit)
  in
  let batch = Option.value ~default:default_enumerate_batch batch in
  let plan = Enumerate.plan ~budget a tmpl in
  let count = ref 0 in
  let complete = ref true in
  let buf = ref [] in
  let flush () =
    if !buf <> [] then begin
      emit_frame (Protocol.ok_enumerate_answers ~id ~answers:(List.rev !buf));
      buf := []
    end
  in
  let rec pull seq =
    if !count >= limit then (
      match seq () with Seq.Nil -> () | Seq.Cons _ -> complete := false)
    else
      match seq () with
      | Seq.Nil -> ()
      | Seq.Cons (h, rest) ->
        incr count;
        buf := h :: !buf;
        if !count mod batch = 0 then flush ();
        pull rest
  in
  pull plan.Enumerate.seq;
  flush ();
  let elapsed_ms = Float.round (1e6 *. (Unix.gettimeofday () -. t0)) /. 1000. in
  Protocol.ok_enumerate_final ~id
    ~route:(Enumerate.route_name plan.Enumerate.route)
    ~cache:cache_status ~count:!count ~complete:!complete ~elapsed_ms

(* ------------------------------------------------------------------ *)
(* Computing admitted requests                                          *)
(* ------------------------------------------------------------------ *)

let get_field field = function
  | Some v -> v
  | None ->
    (* request_of_json validated presence; reaching here is a handler
       bug, not request content. *)
    Core.Error.internal "missing validated field %S" field

let contain_instance q1 q2 =
  match Core.Solver.containment_instance q1 q2 with
  | pair -> pair
  | exception Invalid_argument msg -> Core.Error.bad_input "%s" msg

(* The work of one admitted solve, contain or enumerate request: parse,
   resolve the template through the cache, solve or stream.  An
   unsandboxed daemon runs it in process; a sandboxed one runs it inside
   a worker.  Intermediate enumerate frames go through [emit]; the final
   response is returned.  An exception mid-stream (budget exhaustion,
   cancellation) propagates: already-emitted answers frames stand, and
   the caller answers the typed error that terminates the stream. *)
let compute cfg ~emit (req : Protocol.request) =
  let id = req.Protocol.id in
  let structure what field = parse_structure ~what (get_field what field) in
  let solve a b =
    let resolved = resolve_template cfg b in
    Worker.test_abort_hook a;
    solve_now cfg ~id ~op:req.op ~certify:req.certify ~max_nodes:req.max_nodes
      ~timeout:req.timeout a resolved
  in
  match req.Protocol.op with
  | Protocol.Solve ->
    let a = structure "source" req.source in
    solve a (structure "target" req.target)
  | Protocol.Contain ->
    let q1 = parse_query ~what:"q1" (get_field "q1" req.q1) in
    let q2 = parse_query ~what:"q2" (get_field "q2" req.q2) in
    let a, b = contain_instance q1 q2 in
    solve a b
  | Protocol.Enumerate ->
    let a = structure "source" req.source in
    let resolved = resolve_template cfg (structure "target" req.target) in
    Worker.test_abort_hook a;
    enumerate_now cfg ~emit_frame:emit ~id ~max_nodes:req.max_nodes
      ~timeout:req.timeout ~limit:req.limit ~batch:req.batch a resolved
  | Protocol.Ping | Protocol.Stats ->
    Core.Error.internal "op %s carries no computation"
      (Protocol.op_name req.Protocol.op)

(* Members of a batch frame that solve against the same template —
   identical "target" text for solve, identical "q1" text for contain
   (the template side of a containment instance is q1's canonical
   database) — form one group: the template is parsed and
   cache-resolved once, and a sandboxed daemon sends the whole group to
   one worker as one sub-batch frame.  That is the whole point of
   batching: N queries against the same structure amortize one cache
   lookup and one worker round trip. *)
let template_key (req : Protocol.request) =
  match req.Protocol.op with
  | Protocol.Solve -> ("solve", Option.value ~default:"" req.Protocol.target)
  | Protocol.Contain -> ("contain", Option.value ~default:"" req.Protocol.q1)
  | Protocol.Enumerate | Protocol.Ping | Protocol.Stats -> assert false

(* The (A, resolved-B) instance of one group member.  [shared] lazily
   parses and cache-resolves the group's solve template, so a bad
   template text answers every member with the same typed error; contain
   members re-derive their instance (cheap) and hit the cache that the
   group's first member warmed. *)
let member_instance cfg ~shared (req : Protocol.request) =
  match req.Protocol.op with
  | Protocol.Solve ->
    let a =
      parse_structure ~what:"source" (get_field "source" req.Protocol.source)
    in
    (a, Lazy.force shared)
  | Protocol.Contain ->
    let q1 = parse_query ~what:"q1" (get_field "q1" req.Protocol.q1) in
    let q2 = parse_query ~what:"q2" (get_field "q2" req.Protocol.q2) in
    let a, b = contain_instance q1 q2 in
    (a, resolve_template cfg b)
  | Protocol.Enumerate | Protocol.Ping | Protocol.Stats -> assert false

(* The responses of one template group, in member order; a member's
   failure is its own typed error. *)
let compute_group cfg (reqs : Protocol.request list) =
  let shared =
    lazy
      (let text =
         match reqs with
         | first :: _ -> Option.value ~default:"" first.Protocol.target
         | [] -> ""
       in
       resolve_template cfg (parse_structure ~what:"target" text))
  in
  List.map
    (fun (req : Protocol.request) ->
      try
        let a, b = member_instance cfg ~shared req in
        Worker.test_abort_hook a;
        solve_now cfg ~id:req.id ~op:req.op ~certify:req.certify
          ~max_nodes:req.max_nodes ~timeout:req.timeout a b
      with e -> Protocol.error_of_exn ~id:req.id e)
    reqs

(* ------------------------------------------------------------------ *)
(* Sandbox workers                                                      *)
(* ------------------------------------------------------------------ *)

let cache_counters (c : Cache.stats) =
  [
    ("hits", Json.Int c.Cache.hits);
    ("misses", Json.Int c.Cache.misses);
    ("poisoned", Json.Int c.Cache.poisoned);
    ("build_failures", Json.Int c.Cache.build_failures);
    ("evictions", Json.Int c.Cache.evictions);
    ("entries", Json.Int c.Cache.entries);
    ("capacity", Json.Int c.Cache.capacity);
  ]

let cache_templates (c : Cache.stats) =
  List.map
    (fun (ts : Cache.template_stats) ->
      Json.Obj
        [
          ("fingerprint", Json.String ts.Cache.t_fingerprint);
          ("raw_elements", Json.Int ts.Cache.t_raw_elements);
          ("core_elements", Json.Int ts.Cache.t_core_elements);
        ])
    c.Cache.templates

let request_exn j =
  match Protocol.request_of_json j with
  | Ok req -> req
  | Error msg -> Core.Error.bad_input "%s" msg

(* What a sandbox worker runs on each line the daemon forwards: one
   request frame, or one template group as a sub-batch array.  The
   parent has already parsed, admitted and counted the request, so the
   worker only computes — in process, single-threaded (fork and domains
   do not mix), against its own copy of the template cache, which it
   inherited warm.  The degraded retry lowers the node ceiling to the
   pool's cap, so the second attempt is strictly cheaper.  Every reply
   reports the worker's cache counters, and its resident templates
   whenever they changed, for the parent's [stats] op. *)
let worker_serve cfg =
  let cfg =
    {
      cfg with
      sandbox = None;
      admit = (fun () -> `Go);
      release = ignore;
      threads = 1;
    }
  in
  let relocked = ref false in
  let reported = ref None in
  fun ~node_cap line ->
    if not !relocked then begin
      Cache.relock_after_fork cfg.cache;
      relocked := true
    end;
    let cfg =
      match node_cap with
      | None -> cfg
      | Some cap ->
        let ceiling = Option.fold ~none:cap ~some:(min cap) cfg.ceiling_nodes in
        { cfg with ceiling_nodes = Some ceiling }
    in
    let frames =
      match Json.parse line with
      | Json.List items -> compute_group cfg (List.map request_exn items)
      | j ->
        let req = request_exn j in
        let emitted = ref [] in
        let final =
          try compute cfg ~emit:(fun f -> emitted := f :: !emitted) req
          with e -> Protocol.error_of_exn ~id:req.Protocol.id e
        in
        List.rev (final :: !emitted)
    in
    let c = Cache.stats cfg.cache in
    let shape = Some (c.Cache.misses, c.Cache.build_failures, c.Cache.evictions) in
    let templates =
      if !reported = shape then []
      else begin
        reported := shape;
        [ ("cache_templates", Json.List (cache_templates c)) ]
      end
    in
    { Worker.frames; report = ("cache", Json.Obj (cache_counters c)) :: templates }

let sandboxed ?limits ?retry_nodes ?max_workers cfg =
  {
    cfg with
    sandbox =
      Some
        (Worker.create_pool ?limits ?retry_nodes ?max_workers
           ~serve:(worker_serve cfg) ());
  }

(* Field-wise sum of two worker reports' values: integers add, lists
   concatenate. *)
let rec add_reported a b =
  match (a, b) with
  | Json.Int x, Json.Int y -> Json.Int (x + y)
  | Json.List xs, Json.List ys -> Json.List (xs @ ys)
  | Json.Obj xs, Json.Obj ys ->
    Json.Obj
      (List.map
         (fun (k, v) ->
           (k, match List.assoc_opt k ys with Some w -> add_reported v w | None -> v))
         xs)
  | a, _ -> a

(* The [stats] op's cache object.  Under a sandbox it sums the caches the
   live workers last reported; before any worker has answered, the
   parent's own cache is exactly what a new worker would inherit. *)
let cache_json cfg =
  let reports = Option.fold ~none:[] ~some:Worker.reports cfg.sandbox in
  let counters, templates =
    if reports = [] then
      let c = Cache.stats cfg.cache in
      (Json.Obj (cache_counters c), Json.List (cache_templates c))
    else
      let sum key =
        match List.filter_map (List.assoc_opt key) reports with
        | [] -> Json.List []
        | j :: js -> List.fold_left add_reported j js
      in
      (sum "cache", sum "cache_templates")
  in
  match counters with
  | Json.Obj fields -> Json.Obj (fields @ [ ("templates", templates) ])
  | j -> j

let stats_fields cfg =
  [
    ("cache", cache_json cfg);
    ( "faults",
      Json.Obj
        (List.map
           (fun (site, n) -> (site, Json.Int n))
           (Fault.injected_per_site ())) );
    ("latency_ms", Latency.to_json cfg.latency);
    ( "workers",
      match cfg.sandbox with
      | None -> Json.Obj [ ("sandbox", Json.Bool false) ]
      | Some pool ->
        let w = Worker.stats pool in
        Json.Obj
          [
            ("sandbox", Json.Bool true);
            ("live", Json.Int w.Worker.live);
            ("spawned", Json.Int w.Worker.spawned);
            ("retired", Json.Int w.Worker.retired);
            ("completed", Json.Int w.Worker.completed);
            ("retries", Json.Int w.Worker.retries);
            ("dumps", Json.Int w.Worker.dumps);
            ( "crashes",
              Json.Obj
                [
                  ("total", Json.Int w.Worker.crashes_total);
                  ("signal", Json.Int w.Worker.crashes_signal);
                  ("oom", Json.Int w.Worker.crashes_oom);
                  ("cpu", Json.Int w.Worker.crashes_cpu);
                  ("watchdog", Json.Int w.Worker.crashes_watchdog);
                  ("protocol", Json.Int w.Worker.crashes_protocol);
                  ("exit", Json.Int w.Worker.crashes_exit);
                ] );
          ] );
  ]

(* ------------------------------------------------------------------ *)
(* The request handler — the isolation boundary                         *)
(* ------------------------------------------------------------------ *)

(* One admitted solve, contain or enumerate request, computed in process
   or forwarded verbatim to a sandbox worker, whose frames come back
   buffered: the parent replays all but the last through [emit], so a
   retried stream never duplicates answers.  Answers are counted and
   latency recorded here, off the final frame. *)
let run_request cfg ~line ~emit (req : Protocol.request) =
  let id = req.Protocol.id in
  let t0 = Unix.gettimeofday () in
  let final =
    match cfg.sandbox with
    | None -> compute cfg ~emit req
    | Some pool -> (
      match Worker.supervise pool ~id ~dump:(dump_for cfg ~line pool) line with
      | Json.List (_ :: _ as frames) ->
        let rec replay = function
          | [ last ] -> last
          | f :: rest ->
            emit f;
            replay rest
          | [] -> assert false
        in
        replay frames
      | reply -> as_response id reply)
  in
  (if req.Protocol.op = Protocol.Enumerate then
     match Json.int_member "count" final with
     | Some n -> Telemetry.count "serve.enumerate.answers" n
     | None -> ());
  record_latency cfg ~wall_ms:((Unix.gettimeofday () -. t0) *. 1000.) final

let dispatch cfg ~line ~emit (req : Protocol.request) =
  let id = req.Protocol.id in
  match req.Protocol.op with
  | Protocol.Ping -> Protocol.ok_ping ~id
  | Protocol.Stats -> Protocol.ok_stats ~id ~fields:(stats_fields cfg)
  | Protocol.Solve | Protocol.Contain | Protocol.Enumerate -> (
    Fault.trip Fault.Admit;
    match cfg.admit () with
    | `Shed message ->
      Telemetry.count "serve.shed" 1;
      Protocol.shed ~id ~message
    | `Cancelled ->
      Protocol.error ~id
        (Core.Error.Budget_exhausted Relational.Budget.Cancelled)
    | `Go ->
      Fun.protect ~finally:cfg.release (fun () ->
          if req.Protocol.op = Protocol.Enumerate then
            Telemetry.count "serve.enumerate" 1;
          run_request cfg ~line ~emit req))

(* ------------------------------------------------------------------ *)
(* Batch frames                                                         *)
(* ------------------------------------------------------------------ *)

(* A JSON array frame is a batch: each element is a request, and the
   response is the array of their responses, in order, on one line.
   Verdict-bearing members pass admission once as a unit and are grouped
   by template ({!template_key}); a sandboxed daemon forwards each group
   as one sub-batch frame, so a worker crash costs one group. *)
let solve_group cfg ~line responses members =
  let reqs = List.map (fun (_, req, _) -> req) members in
  let t0 = Unix.gettimeofday () in
  let rs =
    match cfg.sandbox with
    | None -> compute_group cfg reqs
    | Some pool -> (
      let ids = Json.List (List.map (fun r -> r.Protocol.id) reqs) in
      let sub_batch =
        Json.to_string (Json.List (List.map (fun (_, _, item) -> item) members))
      in
      match
        Worker.supervise pool ~id:ids ~dump:(dump_for cfg ~line pool) sub_batch
      with
      | Json.List rs when List.length rs = List.length reqs -> rs
      | reply -> List.map (fun r -> as_response r.Protocol.id reply) reqs)
  in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  List.iter2
    (fun (i, _, _) r -> responses.(i) <- record_latency cfg ~wall_ms r)
    members rs

let handle_batch cfg ~line items =
  let n = List.length items in
  if n = 0 then Core.Error.bad_input "batch frame must contain at least one request";
  if n > max_batch then
    Core.Error.bad_input "batch frame of %d requests exceeds the %d-request limit"
      n max_batch;
  Telemetry.count "serve.batch" 1;
  Telemetry.count "serve.batch.requests" n;
  let responses = Array.make n Json.Null in
  let solves = ref [] in
  List.iteri
    (fun i item ->
      match Protocol.request_of_json item with
      | Error msg ->
        responses.(i) <-
          Protocol.error ~id:(Protocol.id_of_json item)
            (Core.Error.Bad_input msg)
      | Ok req -> (
        match req.Protocol.op with
        | Protocol.Ping -> responses.(i) <- Protocol.ok_ping ~id:req.Protocol.id
        | Protocol.Stats ->
          responses.(i) <-
            Protocol.ok_stats ~id:req.Protocol.id ~fields:(stats_fields cfg)
        | Protocol.Enumerate ->
          (* A batch answers one line per frame; a streamed op cannot
             keep that contract, so it must arrive as its own frame. *)
          responses.(i) <-
            Protocol.error ~id:req.Protocol.id
              (Core.Error.Bad_input
                 "enumerate cannot appear inside a batch frame: it streams \
                  multiple response lines")
        | Protocol.Solve | Protocol.Contain ->
          solves := (i, req, item) :: !solves))
    items;
  let solves = List.rev !solves in
  (if solves <> [] then begin
     Fault.trip Fault.Admit;
     match cfg.admit () with
     | `Shed message ->
       Telemetry.count "serve.shed" 1;
       List.iter
         (fun (i, (req : Protocol.request), _) ->
           responses.(i) <- Protocol.shed ~id:req.id ~message)
         solves
     | `Cancelled ->
       List.iter
         (fun (i, (req : Protocol.request), _) ->
           responses.(i) <-
             Protocol.error ~id:req.id
               (Core.Error.Budget_exhausted Relational.Budget.Cancelled))
         solves
     | `Go ->
       Fun.protect ~finally:cfg.release (fun () ->
           (* Group members by template, preserving first-appearance
              order of groups and request order within each group. *)
           let order = ref [] in
           let groups = Hashtbl.create 8 in
           List.iter
             (fun ((_, req, _) as member) ->
               let key = template_key req in
               (match Hashtbl.find_opt groups key with
               | None -> order := key :: !order
               | Some _ -> ());
               Hashtbl.replace groups key
                 (member
                 :: Option.value ~default:[] (Hashtbl.find_opt groups key)))
             solves;
           List.iter
             (fun key ->
               let members = List.rev (Hashtbl.find groups key) in
               solve_group cfg ~line responses members)
             (List.rev !order))
   end);
  Json.List (Array.to_list responses)

let handle_line ?(emit = fun _ -> ()) cfg line =
  Telemetry.count "serve.requests" 1;
  let id = ref Json.Null in
  let emit_json j =
    emit
      (match Json.to_string j with
      | s -> s
      | exception _ -> Protocol.fallback_line)
  in
  let response =
    try
      if String.length line > cfg.max_frame_bytes then
        Core.Error.bad_input "frame of %d bytes exceeds the %d-byte limit"
          (String.length line) cfg.max_frame_bytes;
      Fault.trip Fault.Parse;
      let j =
        match Json.parse ~max_bytes:cfg.max_frame_bytes line with
        | j -> j
        | exception Json.Parse_error msg ->
          Core.Error.bad_input "bad frame: %s" msg
      in
      id := Protocol.id_of_json j;
      match j with
      | Json.List items -> handle_batch cfg ~line items
      | _ -> (
        match Protocol.request_of_json j with
        | Error msg -> Protocol.error ~id:!id (Core.Error.Bad_input msg)
        | Ok req -> dispatch cfg ~line ~emit:emit_json req)
    with e -> Protocol.error_of_exn ~id:!id e
  in
  let count_status = function
    | Json.Obj fields -> (
      match List.assoc_opt "status" fields with
      | Some (Json.String s) -> Telemetry.count ("serve.response." ^ s) 1
      | _ -> ())
    | _ -> ()
  in
  (match response with
  | Json.List members -> List.iter count_status members
  | r -> count_status r);
  match
    Fault.trip Fault.Respond;
    Json.to_string response
  with
  | line -> line
  | exception _ -> Protocol.fallback_line

(* ------------------------------------------------------------------ *)
(* Admission control                                                    *)
(* ------------------------------------------------------------------ *)

module Admission = struct
  type t = {
    lock : Mutex.t;
    freed : Condition.t;
    max_inflight : int;
    max_queue : int;
    shutdown : bool ref;
    mutable inflight : int;
    mutable waiting : int;
  }

  let create ~max_inflight ~max_queue ~shutdown =
    {
      lock = Mutex.create ();
      freed = Condition.create ();
      max_inflight = max 1 max_inflight;
      max_queue = max 0 max_queue;
      shutdown;
      inflight = 0;
      waiting = 0;
    }

  let admit t =
    Mutex.lock t.lock;
    let rec decide () =
      if !(t.shutdown) then `Cancelled
      else if t.inflight < t.max_inflight then begin
        t.inflight <- t.inflight + 1;
        `Go
      end
      else if t.waiting >= t.max_queue then
        `Shed
          (Printf.sprintf
             "server overloaded: %d in flight, %d queued (limits %d/%d)"
             t.inflight t.waiting t.max_inflight t.max_queue)
      else begin
        (* Backpressure: this connection thread parks here, which also
           stops it from reading further frames off its socket. *)
        t.waiting <- t.waiting + 1;
        Condition.wait t.freed t.lock;
        t.waiting <- t.waiting - 1;
        decide ()
      end
    in
    let r = decide () in
    Mutex.unlock t.lock;
    (match r with `Go -> Telemetry.count "serve.admitted" 1 | _ -> ());
    r

  let release t =
    Mutex.lock t.lock;
    t.inflight <- t.inflight - 1;
    Condition.signal t.freed;
    Mutex.unlock t.lock

  let wake_all t =
    Mutex.lock t.lock;
    Condition.broadcast t.freed;
    Mutex.unlock t.lock
end

(* ------------------------------------------------------------------ *)
(* The daemon                                                           *)
(* ------------------------------------------------------------------ *)

type socket_mode = Unix_socket of string | Stdio

type options = {
  mode : socket_mode;
  max_inflight : int;
  max_queue : int;
  cache_capacity : int;
  opt_ceiling_nodes : int option;
  opt_ceiling_timeout : float option;
  opt_default_nodes : int option;
  opt_default_timeout : float option;
  opt_max_frame_bytes : int;
  opt_sandbox : bool;
  opt_sandbox_mem_bytes : int option;
  opt_sandbox_cpu_seconds : int option;
  opt_sandbox_wall_seconds : float;
  opt_spool_dir : string option;
  opt_threads : int;
  opt_warm_manifest : string option;
  opt_preprocess : bool;
}

(* Cache warm-up: the manifest lists structure files, one path per line
   (blank lines and #-comments skipped; relative paths resolve against
   the manifest's own directory).  Runs at startup, outside the
   isolation boundary on purpose: a missing file or bad template text
   must fail the daemon loudly at launch, not poison a cache key
   silently under traffic. *)
let warm_cache cache manifest =
  let dir = Filename.dirname manifest in
  let read_file what path =
    match In_channel.with_open_text path In_channel.input_all with
    | text -> text
    | exception Sys_error msg -> Core.Error.bad_input "cannot read %s: %s" what msg
  in
  let warmed = ref 0 in
  String.split_on_char '\n' (read_file "warm manifest" manifest)
  |> List.iter (fun raw ->
         let path = String.trim raw in
         if path <> "" && path.[0] <> '#' then begin
           let path =
             if Filename.is_relative path then Filename.concat dir path
             else path
           in
           let b =
             parse_structure
               ~what:(Printf.sprintf "warm template (%s)" path)
               (read_file (Printf.sprintf "warm template %s" path) path)
           in
           (match Cache.lookup cache b with
           | Cache.Poisoned msg, _ ->
             Core.Error.bad_input "warm template %s failed to build: %s" path
               msg
           | (Cache.Hit _ | Cache.Miss _), _ -> ());
           incr warmed
         end);
  Telemetry.count "serve.cache.warmed" !warmed;
  !warmed

(* EINTR-safe read: signals interrupt blocked reads; only shutdown (via
   socket shutdown, yielding 0) should end the loop. *)
let rec safe_read fd buf off len =
  match Unix.read fd buf off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> safe_read fd buf off len

let rec write_all fd s off len =
  if len > 0 then begin
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len
  end

(* One byte stream: split into lines, feed each through the handler,
   answer one response line per frame.  A line that outgrows the frame
   limit is answered once and discarded to the next newline, so a
   malicious endless frame cannot hold the buffer — this reader backs
   both the socket connections and stdio mode, which previously buffered
   unbounded lines through [In_channel.input_line].  Any IO error (EPIPE,
   reset) just ends this stream — never the daemon. *)
let serve_stream cfg ~shutdown ~in_fd ~respond =
  let chunk = Bytes.create 8192 in
  let line = Buffer.create 1024 in
  let discarding = ref false in
  (* Pre-empt the handler: the frame is already too big to buffer, so the
     typed response is built directly (same shape handle_line would
     produce for an oversized frame). *)
  let overflow_response () =
    Telemetry.count "serve.requests" 1;
    Telemetry.count "serve.response.error" 1;
    match
      Json.to_string
        (Protocol.error ~id:Json.Null
           (Core.Error.Bad_input
              (Printf.sprintf "frame exceeds the %d-byte limit"
                 cfg.max_frame_bytes)))
    with
    | s -> s
    | exception _ -> Protocol.fallback_line
  in
  try
    let running = ref true in
    while !running do
      let n = safe_read in_fd chunk 0 (Bytes.length chunk) in
      if n = 0 then running := false
      else
        for i = 0 to n - 1 do
          match Bytes.get chunk i with
          | '\n' ->
            if !discarding then discarding := false
            else begin
              let frame = Buffer.contents line in
              if String.trim frame <> "" then
                respond (handle_line ~emit:respond cfg frame)
            end;
            Buffer.clear line
          | c ->
            if not !discarding then begin
              Buffer.add_char line c;
              if Buffer.length line > cfg.max_frame_bytes then begin
                respond (overflow_response ());
                Buffer.clear line;
                discarding := true
              end
            end
        done;
      if !shutdown && Buffer.length line = 0 then running := false
    done
  with _ -> ()

let serve_connection cfg ~shutdown fd =
  serve_stream cfg ~shutdown ~in_fd:fd ~respond:(fun s ->
      write_all fd (s ^ "\n") 0 (String.length s + 1))

type registry = {
  reg_lock : Mutex.t;
  mutable conns : (int * Unix.file_descr) list;
  mutable next_id : int;
}

let registry_add reg fd =
  Mutex.lock reg.reg_lock;
  let id = reg.next_id in
  reg.next_id <- id + 1;
  reg.conns <- (id, fd) :: reg.conns;
  Mutex.unlock reg.reg_lock;
  id

let registry_remove reg id =
  Mutex.lock reg.reg_lock;
  reg.conns <- List.filter (fun (i, _) -> i <> id) reg.conns;
  Mutex.unlock reg.reg_lock

let registry_shutdown_all reg =
  Mutex.lock reg.reg_lock;
  let fds = List.map snd reg.conns in
  Mutex.unlock reg.reg_lock;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
    fds

let bind_unix_socket path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     if Sys.file_exists path then begin
       (* A live daemon answers a connect; a stale file refuses it. *)
       let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       match Unix.connect probe (Unix.ADDR_UNIX path) with
       | () ->
         Unix.close probe;
         Core.Error.bad_input "socket %s is already being served" path
       | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
         ->
         Unix.close probe;
         Sys.remove path
       | exception e ->
         (try Unix.close probe with _ -> ());
         raise e
     end;
     Unix.bind sock (Unix.ADDR_UNIX path);
     Unix.listen sock 64
   with e ->
     (try Unix.close sock with _ -> ());
     raise e);
  sock

(* The daemon's config.  A sandboxed daemon's pool holds one worker per
   admitted request: [max_workers], matching the admission limit. *)
let config_of_options opts ~cancel ~admission ~max_workers =
  let cfg =
  {
    cache =
      Cache.create ~preprocess:opts.opt_preprocess
        ~capacity:opts.cache_capacity ();
    ceiling_nodes = opts.opt_ceiling_nodes;
    ceiling_timeout = opts.opt_ceiling_timeout;
    default_nodes = opts.opt_default_nodes;
    default_timeout = opts.opt_default_timeout;
    cancel;
    max_frame_bytes = opts.opt_max_frame_bytes;
    admit =
      (fun () ->
        match admission with
        | Some adm -> Admission.admit adm
        | None -> `Go);
    release =
      (fun () ->
        match admission with Some adm -> Admission.release adm | None -> ());
    sandbox = None;
    spool_dir = opts.opt_spool_dir;
    threads = max 1 opts.opt_threads;
    preprocess = opts.opt_preprocess;
    latency = Latency.create ();
  }
  in
  if not opts.opt_sandbox then cfg
  else
    sandboxed ~max_workers
      ~limits:
        {
          Worker.mem_bytes = opts.opt_sandbox_mem_bytes;
          cpu_seconds = opts.opt_sandbox_cpu_seconds;
          wall_seconds = opts.opt_sandbox_wall_seconds;
        }
      cfg

let run_stdio cfg ~shutdown =
  Fun.protect
    ~finally:(fun () -> Option.iter Worker.shutdown cfg.sandbox)
    (fun () ->
      serve_stream cfg ~shutdown ~in_fd:Unix.stdin ~respond:(fun s ->
          write_all Unix.stdout (s ^ "\n") 0 (String.length s + 1)));
  0

let run_socket cfg ~shutdown ~admission path =
  let listener = bind_unix_socket path in
  (* Self-pipe: the signal handler writes one byte so the select below
     wakes even when the signal lands on some worker thread. *)
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  let reg = { reg_lock = Mutex.create (); conns = []; next_id = 0 } in
  let threads = ref [] in
  let note_shutdown () =
    shutdown := true;
    cfg.cancel := true;
    try ignore (Unix.write_substring wake_w "x" 0 1) with _ -> ()
  in
  let previous_handlers =
    List.map
      (fun signal ->
        (signal, Sys.signal signal (Sys.Signal_handle (fun _ -> note_shutdown ()))))
      [ Sys.sigterm; Sys.sigint ]
  in
  let accept_loop () =
    while not !shutdown do
      (* Bounded: a signal that lands on a thread blocked in a restarted
         read records shutdown without ever waking this select, and only
         a return to OCaml code runs the handler. *)
      match Unix.select [ listener; wake_r ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | readable, _, _ ->
        if List.memq listener readable && not !shutdown then begin
          match Unix.accept ~cloexec:true listener with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | fd, _ ->
            let id = registry_add reg fd in
            let t =
              Thread.create
                (fun () ->
                  Fun.protect
                    ~finally:(fun () ->
                      registry_remove reg id;
                      try Unix.close fd with _ -> ())
                    (fun () -> serve_connection cfg ~shutdown fd))
                ()
            in
            threads := t :: !threads
        end
    done
  in
  Fun.protect
    ~finally:(fun () ->
      (* Drain: cancel in-flight budgets, release queued requests, kick
         blocked readers, then wait for every connection thread. *)
      shutdown := true;
      cfg.cancel := true;
      Option.iter Admission.wake_all admission;
      registry_shutdown_all reg;
      List.iter Thread.join !threads;
      (* No request is in flight any more: close every worker's request
         pipe and reap it, so none outlives the daemon. *)
      Option.iter Worker.shutdown cfg.sandbox;
      List.iter
        (fun (signal, behavior) -> try Sys.set_signal signal behavior with _ -> ())
        previous_handlers;
      (try Unix.close listener with _ -> ());
      (try Unix.close wake_r with _ -> ());
      (try Unix.close wake_w with _ -> ());
      try Sys.remove path with _ -> ())
    accept_loop;
  0

let run opts =
  Fault.arm_from_env ();
  (* A worker hitting a closed peer must get EPIPE (handled per
     connection), not a process-killing SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let shutdown = ref false in
  let cancel = ref false in
  match opts.mode with
  | Stdio ->
    let cfg = config_of_options opts ~cancel ~admission:None ~max_workers:1 in
    Option.iter (fun m -> ignore (warm_cache cfg.cache m)) opts.opt_warm_manifest;
    let note_shutdown () =
      shutdown := true;
      cancel := true
    in
    List.iter
      (fun signal ->
        try
          ignore (Sys.signal signal (Sys.Signal_handle (fun _ -> note_shutdown ())))
        with Invalid_argument _ -> ())
      [ Sys.sigterm; Sys.sigint ];
    run_stdio cfg ~shutdown
  | Unix_socket path ->
    let admission =
      Admission.create ~max_inflight:opts.max_inflight ~max_queue:opts.max_queue
        ~shutdown
    in
    let cfg =
      config_of_options opts ~cancel ~admission:(Some admission)
        ~max_workers:opts.max_inflight
    in
    Option.iter (fun m -> ignore (warm_cache cfg.cache m)) opts.opt_warm_manifest;
    run_socket cfg ~shutdown ~admission:(Some admission) path
