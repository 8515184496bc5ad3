open Relational

type route =
  | Preprocess
  | Schaefer_direct of Schaefer.Classify.schaefer_class
  | Booleanized of Schaefer.Classify.schaefer_class
  | Graph_target of Graph_dichotomy.verdict
  | Acyclic
  | Bounded_treewidth of int
  | Consistency_refutation of int
  | Backtracking

let route_name = function
  | Preprocess -> "preprocess"
  | Schaefer_direct cls -> "schaefer-direct(" ^ Schaefer.Classify.class_name cls ^ ")"
  | Booleanized cls -> "booleanized(" ^ Schaefer.Classify.class_name cls ^ ")"
  | Graph_target Graph_dichotomy.Polynomial -> "hell-nesetril(tractable graph)"
  | Graph_target Graph_dichotomy.Np_complete -> "hell-nesetril(np-complete)"
  | Acyclic -> "acyclic-yannakakis"
  | Bounded_treewidth w -> Printf.sprintf "treewidth-dp(width %d)" w
  | Consistency_refutation k -> Printf.sprintf "%d-consistency" k
  | Backtracking -> "backtracking"

type verdict =
  | Sat of Homomorphism.mapping
  | Unsat of Certificate.t
  | Unknown of Budget.exhausted_reason

type attempt_outcome =
  | Decided
  | Pruned
  | Exhausted of Budget.exhausted_reason
  | Inapplicable
  | Cancelled

let outcome_name = function
  | Decided -> "decided"
  | Pruned -> "pruned"
  | Exhausted reason ->
    Printf.sprintf "exhausted(%s)" (Budget.reason_to_string reason)
  | Inapplicable -> "inapplicable"
  | Cancelled -> "cancelled(lost race)"

type attempt = {
  route : route;
  nodes : int;
  outcome : attempt_outcome;
  counters : (string * int) list;
}

type result = { verdict : verdict; route : route; attempts : attempt list }

let answer r = match r.verdict with Sat h -> Some h | Unsat _ | Unknown _ -> None

let verdict_certificate = function
  | Sat h -> Some (Certificate.Witness h)
  | Unsat c -> Some c
  | Unknown _ -> None

let certificate r = verdict_certificate r.verdict

let verdict_name = function
  | Sat _ -> "sat"
  | Unsat _ -> "unsat"
  | Unknown reason ->
    Printf.sprintf "unknown (%s)" (Budget.reason_to_string reason)

(* ------------------------------------------------------------------ *)
(* The route ladder (DESIGN.md section 15).                             *)
(*                                                                      *)
(* Each tractable case of the paper is one stage: a guard that decides  *)
(* whether the route applies, and a body that runs it under a budget.  *)
(* The stages are stated once, here, and two dispatchers run them: the  *)
(* sequential one ([threads = 1]) tries them in order, each under its   *)
(* share of the allowance still left; the racing one ([threads > 1])    *)
(* runs every independent stage as its own racer task and the dependent *)
(* tail — k-consistency, then backtracking under its pruning — as one   *)
(* task that is the sequential dispatcher over those two stages.        *)
(* ------------------------------------------------------------------ *)

(* What a route reports before certification: a witness; a refutation
   together with the (possibly expensive) construction of its checkable
   certificate; or, from k-consistency only, sound domain pruning for the
   stages after it.  Certification runs under the same budget as the
   route itself; if it exhausts that budget, the answer is withheld and
   the dispatcher moves on, exactly as for an exhausted route. *)
type route_answer =
  | Found of Homomorphism.mapping
  | Refuted of (Budget.t -> Certificate.t option)
  | Narrowed of (int -> int -> bool)

(* One stage.  [guard] names the route when it applies and hands back its
   body; it may do unbudgeted preparatory work (Booleanization, the tree
   decomposition), so the racing dispatcher runs it inside the stage's task.
   The body runs under the budget it is given, sees the pruning of an
   earlier k-consistency pass, and answers [None] when the instance is
   outside the route, together with the engine counters for the attempt.
   [share]: the sequential dispatcher gives the stage [1/share] of the node
   allowance still left. *)
type stage = { share : int; guard : unit -> (route * body) option }

and body =
  restrict:(int -> int -> bool) option ->
  Budget.t ->
  route_answer option * (string * int) list

let ladder ~max_treewidth ~consistency_k ~booleanize_threshold a b =
  let stage ?(share = 1) guard = { share; guard } in
  let plain f ~restrict:_ s = (f s, []) in
  let schaefer () =
    if Structure.size b <> 2 then None
    else
      Option.map
        (fun cls ->
          ( Schaefer_direct cls,
            plain (fun s ->
                match Schaefer.Uniform.solve_direct ~budget:s a b with
                | Schaefer.Uniform.Hom h -> Some (Found h)
                | Schaefer.Uniform.No_hom ->
                  Some (Refuted (fun s -> Certify.of_schaefer_direct ~budget:s a b cls))
                | Schaefer.Uniform.Not_applicable _ -> None) ))
        (Schaefer.Classify.classify b)
  in
  let graph () =
    if
      Graph_dichotomy.is_undirected_graph b
      && Vocabulary.equal (Structure.vocabulary a) (Structure.vocabulary b)
      && Graph_dichotomy.complexity b = Graph_dichotomy.Polynomial
    then
      Some
        ( Graph_target Graph_dichotomy.Polynomial,
          plain (fun s ->
              Budget.check s;
              match Graph_dichotomy.solve a b with
              | Some h -> Some (Found h)
              | None -> Some (Refuted (fun _ -> Certify.of_graph a b))) )
    else None
  in
  let booleanized () =
    if Structure.size b > booleanize_threshold || Structure.size b < 1 then None
    else
      let answer =
        match Schaefer.Booleanize.solve a b with
        | Schaefer.Booleanize.Hom h -> Some (Found h)
        | Schaefer.Booleanize.No_hom ->
          Some (Refuted (fun s -> Certify.of_booleanized ~budget:s a b))
        | Schaefer.Booleanize.Not_schaefer _ -> None
      in
      Option.map
        (fun answer ->
          let cls =
            Option.value ~default:Schaefer.Classify.Affine
              (Schaefer.Classify.classify (Schaefer.Booleanize.encode_target b))
          in
          (Booleanized cls, plain (fun _ -> Some answer)))
        answer
  in
  (* The two join-plan routes: the plan is built from the join forest
     (resp. decomposition) the guard computed, and a refutation's
     certificate hands the checker that plan's facts (resp. bags) and
     parent pointers to replay. *)
  let acyclic () =
    Option.map
      (fun forest ->
        ( Acyclic,
          plain (fun s ->
              match Treewidth.Join_plan.(solve ~budget:s (of_join_forest forest a b)) with
              | Some h -> Some (Found h)
              | None -> Some (Refuted (fun _ -> Certify.of_acyclic forest a b))) ))
      (Treewidth.Hypergraph.join_forest a)
  in
  let treewidth () =
    let td = Treewidth.Td_solver.decompose a in
    let w = Treewidth.Tree_decomposition.width td in
    if w > max_treewidth then None
    else
      Some
        ( Bounded_treewidth w,
          plain (fun s ->
              let plan = Treewidth.Join_plan.of_decomposition td a b in
              match Treewidth.Join_plan.solve ~budget:s plan with
              | Some h -> Some (Found h)
              | None -> Some (Refuted (fun _ -> Certify.of_treewidth plan a b))) )
  in
  let consistency () =
    Some
      ( Consistency_refutation consistency_k,
        fun ~restrict:_ s ->
          let family, trace, st = Pebble.Game.run_traced ~budget:s ~k:consistency_k a b in
          (* The engine's own stats, as structured counters on the attempt.
             Deliberately derived from the returned stats rather than from
             telemetry, so attempts are identical whether or not a sink is
             installed (no observer effect). *)
          let counters =
            [
              ("pebble.configs_ranked", st.Pebble.Game.configs_ranked);
              ("pebble.deaths_propagated", st.Pebble.Game.deaths_propagated);
              ("pebble.initial_configs", st.Pebble.Game.initial_configs);
              ("pebble.removed", st.Pebble.Game.removed);
              ("pebble.supports_built", st.Pebble.Game.supports_built);
            ]
          in
          if family = [] then
            (Some (Refuted (fun _ -> Some (Certify.of_consistency ~trace b))), counters)
          else begin
            (* Sound pruning: a pair [(x, v)] whose singleton configuration
               was removed from the winning family lies on no
               homomorphism, so backtracking may skip it outright. *)
            let singles = Hashtbl.create 256 in
            List.iter
              (function [ (x, v) ] -> Hashtbl.replace singles (x, v) () | _ -> ())
              family;
            (Some (Narrowed (fun x v -> Hashtbl.mem singles (x, v))), counters)
          end )
  in
  (* Backtracking certifies a refutation with an independent exhaustive
     search under what remains of its budget; a witness surfacing there
     means MAC and the certifying search disagree. *)
  let backtracking () =
    Some
      ( Backtracking,
        fun ~restrict s ->
          match Homomorphism.decide ?restrict ~budget:s a b with
          | Budget.Sat h -> (Some (Found h), [])
          | Budget.Unsat ->
            (Some (Refuted (fun s -> Certify.of_backtracking ~budget:s a b)), [])
          | Budget.Unknown reason -> raise (Budget.Exhausted reason) )
  in
  ( [ stage schaefer; stage graph; stage booleanized; stage acyclic;
      stage ~share:4 treewidth ],
    [ stage ~share:4 consistency; stage backtracking ] )

(* How a stage that ran ended, for the dispatchers. *)
type claim =
  | Claim of verdict  (** [Sat] or certified [Unsat]. *)
  | Narrow of (int -> int -> bool)
  | Pass of Budget.exhausted_reason option
      (** Inapplicable ([None]) or out of budget. *)

(* Run one stage's body under [budget] inside a [solver.attempt] span,
   closed with the attempt's route, node consumption and outcome.  Budget
   exhaustion — in the route or while building the refutation certificate
   — is an [Exhausted] attempt; a refutation whose certificate cannot be
   built at all is a cross-route disagreement and fails loudly. *)
let run_stage ~restrict budget route (body : body) =
  let sp = Telemetry.begin_span "solver.attempt" in
  let close ?(counters = []) outcome claim =
    let nodes = Budget.spent budget in
    ignore
      (Telemetry.end_span sp
         ~fields:
           [
             ("route", Telemetry.String (route_name route));
             ("nodes", Telemetry.Int nodes);
             ("outcome", Telemetry.String (outcome_name outcome));
           ]);
    ({ route; nodes; outcome; counters }, claim)
  in
  match body ~restrict budget with
  | Some (Found h), counters -> close ~counters Decided (Claim (Sat h))
  | Some (Refuted build), counters -> (
    match build budget with
    | Some cert -> close ~counters Decided (Claim (Unsat cert))
    | None ->
      Error.internal
        "route %s refuted the instance but no checkable certificate exists \
         (cross-route disagreement)"
        (route_name route)
    | exception Budget.Exhausted reason -> close (Exhausted reason) (Pass (Some reason)))
  | Some (Narrowed r), counters -> close ~counters Pruned (Narrow r)
  | None, counters -> close ~counters Inapplicable (Pass None)
  | exception Budget.Exhausted reason -> close (Exhausted reason) (Pass (Some reason))

(* The sequential dispatcher: the stages in order, each under its share of
   the allowance still left, k-consistency pruning carried forward, until
   one decides.  Undecided, the verdict is [Unknown] for the last route
   that ran out of budget. *)
let run_ladder ~budget stages =
  let slice share =
    match Budget.remaining_nodes budget with
    | None -> Budget.slice budget ()
    | Some r -> Budget.slice budget ~max_nodes:(max 1 (r / share)) ()
  in
  let rec go restrict attempts ((route, reason) as last) = function
    | [] -> (List.rev attempts, (Unknown reason, route))
    | stage :: rest -> (
      match stage.guard () with
      | None -> go restrict attempts last rest
      | Some (route, body) -> (
        let at, claim = run_stage ~restrict (slice stage.share) route body in
        let attempts = at :: attempts in
        match claim with
        | Claim v -> (List.rev attempts, (v, route))
        | Narrow r -> go (Some r) attempts last rest
        | Pass None -> go restrict attempts last rest
        | Pass (Some reason) -> go restrict attempts (route, reason) rest))
  in
  go None [] (Backtracking, Budget.Node_limit) stages

(* The racing dispatcher.  Every task runs under a private [Budget.racer]; the
   calling domain consumes finishers in completion order, merges their
   spend, and accepts the first claim that survives the trusted
   certificate checker.  Accepting raises the shared race flag, which
   every other racer's budget polls, so the losers abort soon after:
   their attempts are recorded as [Cancelled] and their claims (if they
   finished anyway) discarded — a cancelled route never contributes a
   verdict.  A claim that fails the checker is dropped (counted as
   [solver.race.uncertified]) and the race goes on.  Only the fused tail
   can end [Unknown], and that is the verdict only if nothing decides. *)
let race_ladder ~budget ~threads a b (independent, tail) =
  let race = ref false in
  (* Racers are made here, on the calling domain, before any spend is
     charged back, so each starts with the same allowance. *)
  let task run =
    let s = Budget.racer budget ~cancel:race in
    fun () ->
      let attempts, decision = run s in
      (attempts, decision, Budget.spent s)
  in
  let alone stage s =
    match stage.guard () with
    | None -> ([], None)
    | Some (route, body) -> (
      match run_stage ~restrict:None s route body with
      | at, Claim v -> ([ at ], Some (v, route))
      | at, (Narrow _ | Pass _) -> ([ at ], None))
  in
  let fused s =
    let attempts, decision = run_ladder ~budget:s tail in
    (attempts, Some decision)
  in
  let tasks =
    Array.of_list (List.map (fun st -> task (alone st)) independent @ [ task fused ])
  in
  let attempts = ref [] and winner = ref None and fallback = ref None in
  let consume (ev : _ Parallel.Race.event) =
    let tried, decision, spent = ev.Parallel.Race.value in
    Budget.charge budget spent;
    let lost = !winner <> None in
    (* After a winner: a finisher's decision was discarded and a racer
       aborted by the race flag lost — both are [Cancelled].  A
       pre-winner [Exhausted Cancelled] is the user's own cancellation
       and stays as it is, as do [Pruned]/[Inapplicable]/other
       exhaustions. *)
    let adjust at =
      match at.outcome with
      | (Decided | Exhausted Budget.Cancelled) when lost ->
        { at with outcome = Cancelled }
      | _ -> at
    in
    List.iter (fun at -> attempts := adjust at :: !attempts) tried;
    match decision with
    | Some ((v, _) as d) when not lost -> (
      match verdict_certificate v with
      | None -> if !fallback = None then fallback := Some d
      | Some cert ->
        if Certificate.check a b cert then begin
          winner := Some d;
          race := true
        end
        else Telemetry.count "solver.race.uncertified" 1)
    | _ -> ()
  in
  Parallel.Race.run ~threads ~tasks ~consume;
  let decision =
    match (!winner, !fallback) with
    | Some d, _ | None, Some d -> d
    | None, None -> (Unknown Budget.Node_limit, Backtracking)
  in
  (List.rev !attempts, decision)

let solve_inner ~max_treewidth ~consistency_k ~booleanize_threshold ~budget
    ~threads a b =
  let solve_span = Telemetry.begin_span "solver.solve" in
  let stages = ladder ~max_treewidth ~consistency_k ~booleanize_threshold a b in
  let attempts, (verdict, route) =
    if threads <= 1 then run_ladder ~budget (fst stages @ snd stages)
    else race_ladder ~budget ~threads a b stages
  in
  (* Prefer the global cause (deadline/cancellation) when the whole
     portfolio is spent. *)
  let verdict =
    match (verdict, Budget.status budget) with
    | Unknown _, Some reason -> Unknown reason
    | _ -> verdict
  in
  ignore
    (Telemetry.end_span solve_span
       ~fields:
         ([
            ("verdict", Telemetry.String (verdict_name verdict));
            ("route", Telemetry.String (route_name route));
          ]
         @ if threads > 1 then [ ("threads", Telemetry.Int threads) ] else []));
  { verdict; route; attempts }

(* ------------------------------------------------------------------ *)
(* Structural preprocessing (DESIGN.md section 16).                     *)
(*                                                                      *)
(* Ahead of the portfolio the source is decomposed into connected       *)
(* components (textually identical ones deduplicated), each component   *)
(* folded and cored by [Preprocess.shrink_source], and each shrunk      *)
(* piece solved independently against [B] — in order, or raced over    *)
(* [Parallel.Race] with racer budgets when [threads > 1] supplies more  *)
(* than one part.  Verdicts conjoin: any part's refutation refutes the  *)
(* whole (wrapped in [Certificate.Via_preprocess] so the trusted        *)
(* checker can replay the shrink), and per-part witnesses reassemble    *)
(* through the fold maps into a witness on the raw source, re-verified  *)
(* here before it is returned.  Budget exhaustion inside the shrink     *)
(* pipeline degrades to the unshrunk instance (the verdict never        *)
(* changes, only the work to reach it), surfaced in the                 *)
(* [preprocess.bailouts] counter of the leading attempt record.         *)
(* ------------------------------------------------------------------ *)

(* A fact of [A] over a symbol whose relation in [B] is absent, empty,
   or of a different arity refutes outright — and, crucially, keeps the
   per-component conjunction sound in the presence of nullary facts,
   which survive [Structure.induced] into every component. *)
let empty_relation_refutation a b =
  Structure.fold_tuples
    (fun name t acc ->
      match acc with
      | Some _ -> acc
      | None ->
        let missing =
          match Structure.relation b name with
          | r -> Relation.is_empty r || Relation.arity r <> Array.length t
          | exception Not_found -> true
        in
        if missing then
          Some (Certificate.Empty_relation { symbol = name; fact = t })
        else None)
    a None

let preprocess_attempt ?(extra = []) ~nodes ~outcome stats =
  { route = Preprocess; nodes; outcome; counters = extra @ Preprocess.counters stats }

let solve_preprocessed ~max_treewidth ~consistency_k ~booleanize_threshold
    ~budget ~threads a b =
  let decided_by_preprocess ~counters verdict =
    {
      verdict;
      route = Preprocess;
      attempts = [ { route = Preprocess; nodes = 0; outcome = Decided; counters } ];
    }
  in
  match empty_relation_refutation a b with
  | Some cert ->
    decided_by_preprocess
      ~counters:[ ("preprocess.empty_relation", 1) ]
      (Unsat cert)
  | None when Structure.size a = 0 ->
    (* No elements and every nullary fact present in [B] (the shortcut
       above just checked): the empty map is a witness. *)
    decided_by_preprocess ~counters:[ ("preprocess.empty_source", 1) ] (Sat [||])
  | None ->
    let before = Budget.spent budget in
    let src =
      Telemetry.with_span "solver.preprocess" (fun () ->
          Preprocess.shrink_source ~budget a)
    in
    let stats = src.Preprocess.stats in
    let pre_attempt =
      preprocess_attempt
        ~nodes:(Budget.spent budget - before)
        ~outcome:
          (if
             stats.Preprocess.shrunk_elements < stats.Preprocess.raw_elements
             || stats.Preprocess.components > 1
           then Pruned
           else Inapplicable)
        stats
    in
    let parts = src.Preprocess.parts in
    let nparts = Array.length parts in
    (* Solve one shrunk piece: the AC-4 singleton-domain substitution
       decides [Sat] outright when propagation forces a unique certified
       assignment; otherwise (or when the budget is already spent — the
       portfolio reports exhaustion uniformly) the full dispatcher runs. *)
    let solve_piece ~threads ~budget piece =
      match Preprocess.ac_singleton_witness ~budget piece b with
      | Some h ->
        decided_by_preprocess ~counters:[ ("preprocess.ac_singleton", 1) ] (Sat h)
      | None | (exception Budget.Exhausted _) ->
        solve_inner ~max_treewidth ~consistency_k ~booleanize_threshold ~budget
          ~threads piece b
    in
    (* One task per part, in order.  With [threads > 1] and several
       parts, the parts race, each with a single-threaded portfolio under
       its own racer budget whose spend is charged back as it finishes;
       otherwise they run in order on [budget] itself.  Either way a
       refutation raises the cancel flag: a part not yet started is then
       skipped, and racing ones abort. *)
    let racing = threads > 1 && nparts > 1 in
    let cancel = ref false in
    let budgets =
      Array.map (fun _ -> if racing then Budget.racer budget ~cancel else budget) parts
    in
    let tasks =
      Array.mapi
        (fun i p () ->
          if !cancel then None
          else
            Some
              (solve_piece
                 ~threads:(if racing then 1 else threads)
                 ~budget:budgets.(i) p.Preprocess.shrink.Preprocess.structure))
        parts
    in
    let results = Array.make nparts None in
    Parallel.Race.run ~threads ~tasks ~consume:(fun { Parallel.Race.index; value } ->
        if racing then Budget.charge budget (Budget.spent budgets.(index));
        results.(index) <- value;
        match value with Some { verdict = Unsat _; _ } -> cancel := true | _ -> ());
    let attempts =
      pre_attempt
      :: List.concat_map
           (function Some (r : result) -> r.attempts | None -> [])
           (Array.to_list results)
    in
    let finish verdict route = { verdict; route; attempts } in
    (* Verdicts conjoin: the first refuted part refutes the whole, else
       the first part out of budget leaves it unknown.  A part is skipped
       only after a refutation, so with neither every part has a
       witness. *)
    let first f = Array.find_mapi (fun i r -> Option.bind r (f i)) results in
    let refuted i r =
      match r.verdict with Unsat c -> Some (i, c, r.route) | _ -> None
    and gave_up _ r =
      match r.verdict with Unknown reason -> Some (reason, r.route) | _ -> None
    in
    match first refuted with
    | Some (i, cert, route) ->
      finish (Unsat (Preprocess.wrap_certificate src i cert)) route
    | None -> (
      match first gave_up with
      | Some (reason, route) ->
        let reason = Option.value ~default:reason (Budget.status budget) in
        finish (Unknown reason) route
      | None ->
        let witness i = Option.get (Option.bind results.(i) answer) in
        let h = Preprocess.assemble_witness src witness in
        if not (Homomorphism.is_homomorphism a b h) then
          Error.internal
            "preprocess witness reassembly produced a non-homomorphism \
             (shrink certification bug)";
        finish (Sat h) (Option.get results.(0)).route)

let solve ?(max_treewidth = 3) ?(consistency_k = 2) ?(booleanize_threshold = 4)
    ?(budget = Budget.unlimited) ?(threads = 1) ?(preprocess = true) a b =
  if preprocess then
    solve_preprocessed ~max_treewidth ~consistency_k ~booleanize_threshold
      ~budget ~threads a b
  else
    solve_inner ~max_treewidth ~consistency_k ~booleanize_threshold ~budget
      ~threads a b

let lift_target (r : Preprocess.retraction) (res : result) =
  match Preprocess.target_step r with
  | None -> res
  | Some st -> (
    match res.verdict with
    | Sat h ->
      { res with verdict = Sat (Array.map (fun v -> r.Preprocess.embed.(v)) h) }
    | Unsat c ->
      {
        res with
        verdict =
          Unsat
            (Certificate.Via_preprocess
               { source = []; target = Some st; inner = c });
      }
    | Unknown _ -> res)

let exists a b =
  match (solve a b).verdict with Sat _ -> true | Unsat _ | Unknown _ -> false

let containment_instance q1 q2 =
  if Cq.Query.arity q1 <> Cq.Query.arity q2 then
    invalid_arg "Solver.solve_containment: head arities differ";
  let d1, _ = Cq.Canonical.database q1 in
  let d2, _ = Cq.Canonical.database q2 in
  (d2, d1)

let solve_containment ?budget ?threads ?preprocess q1 q2 =
  let s, t = containment_instance q1 q2 in
  solve ?budget ?threads ?preprocess s t
