(* In-process replay of a benchmark workload with spans around the calls
   into each library's public functions.

   Usage: trace.exe OPS SECONDS SPANS RESULTS

   OPS holds one operation per line, tab-separated:
     solve      A-FILE  B-FILE
     contain    Q1      Q2
     count      A-FILE  B-FILE
     enumerate  A-FILE  B-FILE
     serve      FRAME             (one JSON request frame of the daemon)

   The replay walks the whole list once to warm up, then in passes for
   about SECONDS, alternating passes with spans on and off, so the two wall
   times give the tracing overhead.  Spans (name, start, end, parent, op)
   are kept in memory and written to SPANS when the replay ends; each op's
   answer from the warm-up pass goes to RESULTS for the caller to check
   against its oracle.
   Counters that only a library result can give (shrink sizes, attempts,
   routes, certificate sizes) are printed as one JSON object on stdout. *)

open Relational

let now () = Int64.to_float (Monotonic_clock.now ())

(* ---- spans ------------------------------------------------------------ *)

let tracing = ref false
let names = Hashtbl.create 16
let name_list = ref []

let name_id name =
  match Hashtbl.find_opt names name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length names in
    Hashtbl.add names name i;
    name_list := name :: !name_list;
    i

type spans = {
  mutable len : int;
  mutable name : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable parent : int array;
  mutable op : int array;
}

let spans =
  let n = 1 lsl 14 in
  {
    len = 0;
    name = Array.make n 0;
    start = Array.make n 0.;
    stop = Array.make n 0.;
    parent = Array.make n 0;
    op = Array.make n 0;
  }

let grow () =
  let n = 2 * Array.length spans.name in
  let ext a z = Array.append a (Array.make (n - Array.length a) z) in
  spans.name <- ext spans.name 0;
  spans.start <- ext spans.start 0.;
  spans.stop <- ext spans.stop 0.;
  spans.parent <- ext spans.parent 0;
  spans.op <- ext spans.op 0

let current = ref (-1)
let current_op = ref 0

(* [span name f] runs [f] inside a span named [name], a child of the span
   open around the call.  With tracing off it is [f ()]. *)
let span name f =
  if not !tracing then f ()
  else begin
    if spans.len = Array.length spans.name then grow ();
    let i = spans.len in
    spans.len <- i + 1;
    spans.name.(i) <- name_id name;
    spans.parent.(i) <- !current;
    spans.op.(i) <- !current_op;
    let outer = !current in
    current := i;
    spans.start.(i) <- now ();
    let finish () =
      spans.stop.(i) <- now ();
      current := outer
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let write_spans path =
  let by_id = Array.of_list (List.rev !name_list) in
  let oc = open_out path in
  for i = 0 to spans.len - 1 do
    Printf.fprintf oc "%s\t%.0f\t%.0f\t%d\t%d\n" by_id.(spans.name.(i))
      spans.start.(i) spans.stop.(i) spans.parent.(i) spans.op.(i)
  done;
  close_out oc

(* ---- counters (warm-up pass only) ------------------------------------- *)

let counters : (string, int) Hashtbl.t = Hashtbl.create 32
let counting = ref false

let bump name n =
  if !counting then
    Hashtbl.replace counters name
      (n + Option.value ~default:0 (Hashtbl.find_opt counters name))

let route_family name =
  let base =
    match String.index_opt name '(' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  (* "2-consistency" -> "consistency" *)
  match String.index_opt base '-' with
  | Some i when i > 0 && base.[0] >= '0' && base.[0] <= '9' ->
    String.sub base (i + 1) (String.length base - i - 1)
  | _ -> base

let note_shrink (src : Preprocess.source) =
  let st = src.Preprocess.stats in
  bump "shrink.calls" 1;
  bump "shrink.raw" st.Preprocess.raw_elements;
  bump "shrink.shrunk" st.Preprocess.shrunk_elements;
  bump "shrink.bailouts" st.Preprocess.bailouts;
  if st.Preprocess.shrunk_elements < st.Preprocess.raw_elements then
    bump "shrink.useful" 1

let note_solve (r : Core.Solver.result) =
  bump "solve.calls" 1;
  List.iter
    (fun (at : Core.Solver.attempt) ->
      bump "solve.attempts" 1;
      bump "solve.nodes" at.Core.Solver.nodes;
      match at.Core.Solver.outcome with
      | Core.Solver.Exhausted _ | Core.Solver.Inapplicable ->
        bump "solve.wasted" 1
      | _ -> ())
    r.Core.Solver.attempts;
  bump
    ("decided." ^ route_family (Core.Solver.route_name r.Core.Solver.route))
    1

(* ---- operations ------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let parse_structure text = span "relational.parse" (fun () -> Structure_text.parse text)
let parse_query text = span "cq.parse" (fun () -> Cq.Parser.parse text)

let verdict_name (r : Core.Solver.result) =
  match r.Core.Solver.verdict with
  | Core.Solver.Sat _ -> "sat"
  | Core.Solver.Unsat _ -> "unsat"
  | Core.Solver.Unknown _ -> "unknown"

(* Check the verdict's certificate as [--certify] does; a rejection is
   reported as a wrong answer by the caller. *)
let certify a b r =
  match Core.Solver.certificate r with
  | None -> true
  | Some c ->
    let ok = span "certificate.check" (fun () -> Certificate.check a b c) in
    bump "certificate.checks" 1;
    bump "certificate.size" (Certificate.size c);
    ok

let with_verdict ok r = if ok then verdict_name r else "rejected"

(* A one-shot solve, memo-cold like a fresh [cqc solve] process. *)
let solve a b =
  Preprocess.memo_reset ();
  note_shrink (span "preprocess.shrink" (fun () -> Preprocess.shrink_source a));
  Preprocess.memo_reset ();
  let r = span "core.solve" (fun () -> Core.Solver.solve a b) in
  note_solve r;
  with_verdict (certify a b r) r

let contain q1 q2 =
  let a, b = span "cq.canonical" (fun () -> Core.Solver.containment_instance q1 q2) in
  Preprocess.memo_reset ();
  note_shrink (span "preprocess.shrink" (fun () -> Preprocess.shrink_source a));
  Preprocess.memo_reset ();
  let r = span "core.solve" (fun () -> Core.Solver.solve_containment q1 q2) in
  note_solve r;
  with_verdict (certify a b r) r

let drain ?limit a b =
  let plan = span "enumerate.plan" (fun () -> Enumerate.plan a b) in
  let seq =
    match limit with Some l -> Seq.take l plan.Enumerate.seq | None -> plan.Enumerate.seq
  in
  let n = span "enumerate.drain" (fun () -> Seq.fold_left (fun n _ -> n + 1) 0 seq) in
  bump "enumerate.answers" n;
  string_of_int n

(* ---- the serve path --------------------------------------------------- *)

let server = Serve.Server.default_config ()
let cache = Serve.Cache.create ~capacity:64 ()

(* One daemon request, replayed three ways: whole through
   [Server.handle_line] in-process; as the sandbox's fork and result pipe
   with the compute already done; and step by step through the public
   functions the handler calls (parse, cache lookup, shrink, solve,
   certify), which is where the per-layer times come from. *)
let serve i frame =
  let line = span "serve.handle_inproc" (fun () -> Serve.Server.handle_line server frame) in
  let response = Serve.Json.parse line in
  let status = Option.value ~default:"" (Serve.Json.string_member "status" response) in
  (match
     span "serve.fork_pipe" (fun () ->
         Serve.Worker.execute ~limits:Serve.Worker.default_limits
           ~id:(Serve.Json.Int i) (fun () -> response))
   with
  | Ok _ -> ()
  | Error _ -> bump "serve.fork_errors" 1);
  let req =
    match Serve.Protocol.request_of_json (Serve.Json.parse frame) with
    | Ok r -> r
    | Error msg -> failwith msg
  in
  let get = function Some s -> s | None -> failwith "missing field" in
  let lookup b =
    let r, _ = span "serve.cache_lookup" (fun () -> Serve.Cache.lookup cache b) in
    bump "cache.lookups" 1;
    match r with
    | Serve.Cache.Hit (b, core) ->
      bump "cache.hits" 1;
      (b, core)
    | Serve.Cache.Miss (b, core) -> (b, core)
    | Serve.Cache.Poisoned _ -> (b, Preprocess.identity_retraction b)
  in
  let answer =
    match req.Serve.Protocol.op with
    | Serve.Protocol.Enumerate ->
      let a = parse_structure (get req.Serve.Protocol.source) in
      (* Counts do not survive core retraction, so enumeration runs on the
         interned template itself. *)
      let b, _ = lookup (parse_structure (get req.Serve.Protocol.target)) in
      drain ?limit:req.Serve.Protocol.limit a b
    | Serve.Protocol.Solve | Serve.Protocol.Contain ->
      let a, b =
        if req.Serve.Protocol.op = Serve.Protocol.Solve then
          let a = parse_structure (get req.Serve.Protocol.source) in
          (a, parse_structure (get req.Serve.Protocol.target))
        else
          let q1 = parse_query (get req.Serve.Protocol.q1) in
          let q2 = parse_query (get req.Serve.Protocol.q2) in
          span "cq.canonical" (fun () -> Core.Solver.containment_instance q1 q2)
      in
      let b, core = lookup b in
      (* Memo-cold, as in a forked sandbox worker. *)
      Preprocess.memo_reset ();
      note_shrink (span "preprocess.shrink" (fun () -> Preprocess.shrink_source a));
      Preprocess.memo_reset ();
      let r =
        span "core.solve" (fun () ->
            Core.Solver.lift_target core
              (Core.Solver.solve a core.Preprocess.structure))
      in
      note_solve r;
      with_verdict (certify a b r) r
    | Serve.Protocol.Ping | Serve.Protocol.Stats -> "none"
  in
  (answer, status)

(* ---- main loop -------------------------------------------------------- *)

type op =
  | Solve of string * string
  | Contain of string * string
  | Count of string * string
  | Enum of string * string
  | Serve_frame of string

let load_ops path =
  let texts = Hashtbl.create 64 in
  let text file =
    match Hashtbl.find_opt texts file with
    | Some t -> t
    | None ->
      let t = read_file file in
      Hashtbl.add texts file t;
      t
  in
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.split_on_char '\t' l with
         | [ "solve"; a; b ] -> Solve (text a, text b)
         | [ "contain"; q1; q2 ] -> Contain (q1, q2)
         | [ "count"; a; b ] -> Count (text a, text b)
         | [ "enumerate"; a; b ] -> Enum (text a, text b)
         | [ "serve"; frame ] -> Serve_frame frame
         | _ -> failwith ("bad op line: " ^ l))
  |> Array.of_list

let run_op i = function
  | Solve (a, b) ->
    let a = parse_structure a and b = parse_structure b in
    (solve a b, "ok")
  | Contain (q1, q2) ->
    let q1 = parse_query q1 and q2 = parse_query q2 in
    (contain q1 q2, "ok")
  | Count (a, b) ->
    let a = parse_structure a and b = parse_structure b in
    let n = span "enumerate.count" (fun () -> Enumerate.count a b) in
    (string_of_int n, "ok")
  | Enum (a, b) ->
    let a = parse_structure a and b = parse_structure b in
    (drain a b, "ok")
  | Serve_frame frame -> serve i frame

let () =
  match Sys.argv with
  | [| _; ops_path; seconds; spans_path; results_path |] ->
    let ops = load_ops ops_path in
    let seconds = float_of_string seconds in
    let results = open_out results_path in
    let wall = [| 0.; 0. |] and passes = [| 0; 0 |] in
    let t_end = now () +. (seconds *. 1e9) in
    (* [pass ~warmup traced] walks every op once.  The warm-up pass is
       untraced and untimed: it fills the caches, takes the first page
       faults, collects the counters and writes each op's answer. *)
    let pass ~warmup traced =
      tracing := traced;
      counting := warmup;
      let t0 = now () in
      Array.iteri
        (fun i op ->
          current_op := i;
          let answer, status =
            try span "op" (fun () -> run_op i op)
            with e -> ("error:" ^ Printexc.to_string e, "error")
          in
          if warmup then Printf.fprintf results "%d\t%s\t%s\n" i answer status)
        ops;
      if not warmup then begin
        let k = if traced then 1 else 0 in
        wall.(k) <- wall.(k) +. (now () -. t0);
        passes.(k) <- passes.(k) + 1
      end;
      tracing := false;
      counting := false
    in
    pass ~warmup:true false;
    (* Then pairs of traced and untraced passes until time is up, at least
       one pair, with the side that goes first alternating between pairs. *)
    while passes.(0) = 0 || now () < t_end do
      let first = passes.(0) mod 2 = 0 in
      pass ~warmup:false first;
      pass ~warmup:false (not first)
    done;
    close_out results;
    write_spans spans_path;
    let fields =
      Hashtbl.fold (fun k v acc -> Printf.sprintf "%S: %d" k v :: acc) counters []
    in
    Printf.printf
      "{\"ops\": %d, \"passes_traced\": %d, \"passes_untraced\": %d, \
       \"wall_traced_ns\": %.0f, \"wall_untraced_ns\": %.0f, \"counters\": {%s}}\n"
      (Array.length ops) passes.(1) passes.(0) wall.(1) wall.(0)
      (String.concat ", " (List.sort compare fields))
  | _ ->
    prerr_endline "usage: trace.exe OPS SECONDS SPANS RESULTS";
    exit 2
