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

let certificate r =
  match r.verdict with
  | Sat h -> Some (Certificate.Witness h)
  | Unsat c -> Some c
  | Unknown _ -> None

let verdict_name = function
  | Sat _ -> "sat"
  | Unsat _ -> "unsat"
  | Unknown reason ->
    Printf.sprintf "unknown (%s)" (Budget.reason_to_string reason)

(* What a route reports before certification: a witness, or a refutation
   together with the (possibly expensive) construction of its checkable
   certificate.  Certification runs under the same budget slice as the
   route itself; if it exhausts the slice, the answer is withheld and the
   dispatcher falls through, exactly as for an exhausted route. *)
type route_answer =
  | Found of Homomorphism.mapping
  | Refuted of (Budget.t -> Certificate.t option)

(* The two join-plan routes: the plan is built once from the join forest
   (resp. decomposition) the dispatcher already holds, and a refutation's
   certificate hands the checker that plan's facts (resp. bags) and
   parent pointers to replay. *)
let acyclic_route forest a b s =
  match Treewidth.Join_plan.(solve ~budget:s (of_join_forest forest a b)) with
  | Some h -> Some (Found h)
  | None -> Some (Refuted (fun _ -> Certify.of_acyclic forest a b))

let treewidth_route td a b s =
  let plan = Treewidth.Join_plan.of_decomposition td a b in
  match Treewidth.Join_plan.solve ~budget:s plan with
  | Some h -> Some (Found h)
  | None -> Some (Refuted (fun _ -> Certify.of_treewidth plan a b))

let solve_seq ~max_treewidth ~consistency_k ~booleanize_threshold ~budget a b =
  let attempts = ref [] in
  let solve_span = Telemetry.begin_span "solver.solve" in
  (* Close the per-attempt span (when one is open) with the attempt's
     identity as fields, so each emitted span record carries the route,
     its node consumption, its outcome, and the counter increments the
     engines performed on its behalf. *)
  let record ?(counters = []) span route nodes outcome =
    ignore
      (Telemetry.end_span span
         ~fields:
           [
             ("route", Telemetry.String (route_name route));
             ("nodes", Telemetry.Int nodes);
             ("outcome", Telemetry.String (outcome_name outcome));
           ]);
    attempts := { route; nodes; outcome; counters } :: !attempts
  in
  let finish verdict route =
    ignore
      (Telemetry.end_span solve_span
         ~fields:
           [
             ("verdict", Telemetry.String (verdict_name verdict));
             ("route", Telemetry.String (route_name route));
           ]);
    { verdict; route; attempts = List.rev !attempts }
  in
  (* Domain pruning inherited from a non-refuting k-consistency pass. *)
  let restriction = ref None in
  (* One intermediate route's share of the remaining node allowance;
     backtracking, last in line, gets everything left. *)
  let slice_for frac =
    match Budget.remaining_nodes budget with
    | None -> Budget.slice budget ()
    | Some r -> Budget.slice budget ~max_nodes:(max 1 (r / frac)) ()
  in
  (* Run one route under its own budget slice.  [f] answers [Some answer]
     when the route decided, [None] when the instance is outside it;
     budget exhaustion — in the route or while building the refutation
     certificate — falls through to the next route.  A refutation whose
     certificate cannot be built at all is a cross-route disagreement and
     fails loudly. *)
  let attempt ?frac route f =
    let s = match frac with None -> Budget.slice budget () | Some k -> slice_for k in
    let sp = Telemetry.begin_span "solver.attempt" in
    match f s with
    | Some (Found h) ->
      record sp route (Budget.spent s) Decided;
      Some (finish (Sat h) route)
    | Some (Refuted build) -> (
      match build s with
      | Some cert ->
        record sp route (Budget.spent s) Decided;
        Some (finish (Unsat cert) route)
      | None ->
        Error.internal
          "route %s refuted the instance but no checkable certificate exists \
           (cross-route disagreement)"
          (route_name route)
      | exception Budget.Exhausted reason ->
        record sp route (Budget.spent s) (Exhausted reason);
        None)
    | None ->
      record sp route (Budget.spent s) Inapplicable;
      None
    | exception Budget.Exhausted reason ->
      record sp route (Budget.spent s) (Exhausted reason);
      None
  in

  let try_schaefer () =
    if Structure.size b <> 2 then None
    else
      match Schaefer.Classify.classify b with
      | None -> None
      | Some cls ->
        attempt (Schaefer_direct cls) (fun s ->
            match Schaefer.Uniform.solve_direct ~budget:s a b with
            | Schaefer.Uniform.Hom h -> Some (Found h)
            | Schaefer.Uniform.No_hom ->
              Some (Refuted (fun s -> Certify.of_schaefer_direct ~budget:s a b cls))
            | Schaefer.Uniform.Not_applicable _ -> None)
  in
  let try_graph () =
    if
      Graph_dichotomy.is_undirected_graph b
      && Vocabulary.equal (Structure.vocabulary a) (Structure.vocabulary b)
      && Graph_dichotomy.complexity b = Graph_dichotomy.Polynomial
    then
      attempt (Graph_target Graph_dichotomy.Polynomial) (fun s ->
          Budget.check s;
          match Graph_dichotomy.solve a b with
          | Some h -> Some (Found h)
          | None -> Some (Refuted (fun _ -> Certify.of_graph a b)))
    else None
  in
  let try_booleanize () =
    if Structure.size b > booleanize_threshold || Structure.size b < 1 then None
    else
      let classify () =
        let bb = Schaefer.Booleanize.encode_target b in
        Option.value ~default:Schaefer.Classify.Affine (Schaefer.Classify.classify bb)
      in
      match Schaefer.Booleanize.solve a b with
      | Schaefer.Booleanize.Hom h ->
        attempt (Booleanized (classify ())) (fun _ -> Some (Found h))
      | Schaefer.Booleanize.No_hom ->
        attempt (Booleanized (classify ())) (fun _ ->
            Some (Refuted (fun s -> Certify.of_booleanized ~budget:s a b)))
      | Schaefer.Booleanize.Not_schaefer _ -> None
  in
  let try_acyclic () =
    match Treewidth.Hypergraph.join_forest a with
    | Some forest -> attempt Acyclic (acyclic_route forest a b)
    | None -> None
  in
  let try_treewidth () =
    match Treewidth.Td_solver.decompose a with
    | td ->
      let w = Treewidth.Tree_decomposition.width td in
      if w > max_treewidth then None
      else attempt ~frac:4 (Bounded_treewidth w) (treewidth_route td a b)
    | exception Budget.Exhausted reason ->
      record None (Bounded_treewidth max_treewidth) 0 (Exhausted reason);
      None
  in
  let try_consistency () =
    let route = Consistency_refutation consistency_k in
    let s = slice_for 4 in
    let sp = Telemetry.begin_span "solver.attempt" in
    (* The engine's own stats, as structured counters on the attempt.
       Deliberately derived from the returned stats rather than from
       telemetry, so attempts are identical whether or not a sink is
       installed (no observer effect). *)
    let engine_counters (st : Pebble.Game.stats) =
      [
        ("pebble.configs_ranked", st.Pebble.Game.configs_ranked);
        ("pebble.deaths_propagated", st.Pebble.Game.deaths_propagated);
        ("pebble.initial_configs", st.Pebble.Game.initial_configs);
        ("pebble.removed", st.Pebble.Game.removed);
        ("pebble.supports_built", st.Pebble.Game.supports_built);
      ]
    in
    match Pebble.Game.run_traced ~budget:s ~k:consistency_k a b with
    | [], trace, stats ->
      record ~counters:(engine_counters stats) sp route (Budget.spent s) Decided;
      Some (finish (Unsat (Certify.of_consistency ~trace b)) route)
    | family, _, stats ->
      (* Sound pruning: a pair [(x, v)] whose singleton configuration was
         removed from the winning family lies on no homomorphism, so the
         backtracking route may skip it outright. *)
      let singles = Hashtbl.create 256 in
      List.iter
        (fun cfg ->
          match cfg with [ (x, v) ] -> Hashtbl.replace singles (x, v) () | _ -> ())
        family;
      restriction := Some (fun x v -> Hashtbl.mem singles (x, v));
      record ~counters:(engine_counters stats) sp route (Budget.spent s) Pruned;
      None
    | exception Budget.Exhausted reason ->
      record sp route (Budget.spent s) (Exhausted reason);
      None
  in
  let backtracking () =
    let s = Budget.slice budget () in
    let sp = Telemetry.begin_span "solver.attempt" in
    let global reason =
      (* Prefer the global cause (deadline/cancellation) when the whole
         portfolio is spent. *)
      match Budget.status budget with Some r -> r | None -> reason
    in
    match Homomorphism.decide ?restrict:!restriction ~budget:s a b with
    | Budget.Sat h ->
      record sp Backtracking (Budget.spent s) Decided;
      finish (Sat h) Backtracking
    | Budget.Unsat -> (
      (* Certify with an independent exhaustive search under what remains
         of the slice; a witness surfacing here means MAC and the
         certifying search disagree. *)
      match Certify.of_backtracking ~budget:s a b with
      | Some cert ->
        record sp Backtracking (Budget.spent s) Decided;
        finish (Unsat cert) Backtracking
      | None ->
        Error.internal
          "backtracking refuted the instance but the certifying search found \
           a homomorphism (cross-route disagreement)"
      | exception Budget.Exhausted reason ->
        record sp Backtracking (Budget.spent s) (Exhausted reason);
        finish (Unknown (global reason)) Backtracking)
    | Budget.Unknown reason ->
      record sp Backtracking (Budget.spent s) (Exhausted reason);
      finish (Unknown (global reason)) Backtracking
  in
  let ( <|> ) r f = match r with Some _ -> r | None -> f () in
  let result =
    try_schaefer ()
    <|> try_graph
    <|> try_booleanize
    <|> try_acyclic
    <|> try_treewidth
    <|> try_consistency
  in
  match result with Some r -> r | None -> backtracking ()

(* ------------------------------------------------------------------ *)
(* Portfolio racing (threads > 1).                                      *)
(*                                                                      *)
(* Instead of trying routes in sequence, every applicable route runs    *)
(* concurrently on its own domain under its own [Budget.racer]; the     *)
(* calling domain consumes finishers in completion order and the first  *)
(* claim that survives the trusted certificate checker wins.  Accepting *)
(* a claim raises the shared race flag, which every other racer's       *)
(* budget polls, so the losers abort with [Cancelled] soon after; their *)
(* attempts are recorded with the [Cancelled] outcome and their claims  *)
(* (if they finished anyway) are discarded — a cancelled route never    *)
(* contributes a verdict.  An Unsat whose certificate fails the checker *)
(* is dropped (counted as [solver.race.uncertified]) and the race       *)
(* continues with the next finisher, preserving the proof-carrying      *)
(* invariant of the sequential dispatcher.                              *)
(*                                                                      *)
(* The backtracking route is fused with the k-consistency pass into one *)
(* task so the pruning chain survives racing: the pass either refutes   *)
(* outright or seeds the restriction under which backtracking searches, *)
(* exactly as in the sequential route order.                            *)
(* ------------------------------------------------------------------ *)

(* A racer's contribution, adjudicated on the calling domain: the
   attempts it wants recorded (chronological) and at most one claim on
   the verdict. *)
type claim =
  | Claim_sat of route * Homomorphism.mapping
  | Claim_unsat of route * Certificate.t
  | Claim_unknown of route * Budget.exhausted_reason
      (** The fused fallback task ran out: verdict [Unknown] unless some
          other racer decides. *)
  | Claim_none

type finisher = { f_attempts : attempt list; f_claim : claim; f_spent : int }

let solve_race ~max_treewidth ~consistency_k ~booleanize_threshold ~budget
    ~threads a b =
  let solve_span = Telemetry.begin_span "solver.solve" in
  let race = ref false in
  let span_fields route nodes outcome =
    [
      ("route", Telemetry.String (route_name route));
      ("nodes", Telemetry.Int nodes);
      ("outcome", Telemetry.String (outcome_name outcome));
    ]
  in
  (* Every task runs under a private racer budget and returns a
     finisher; spans open and close on the task's own domain.  Budget
     exhaustion never escapes a task — a cross-route disagreement
     ([Error.internal]) still does, loudly, through [Race.run]. *)
  let run_task body () =
    let s = Budget.racer budget ~cancel:race in
    let fin = body s in
    { fin with f_spent = Budget.spent s }
  in
  let no_contribution = { f_attempts = []; f_claim = Claim_none; f_spent = 0 } in
  let one route s sp outcome claim =
    ignore (Telemetry.end_span sp ~fields:(span_fields route (Budget.spent s) outcome));
    {
      f_attempts = [ { route; nodes = Budget.spent s; outcome; counters = [] } ];
      f_claim = claim;
      f_spent = 0;
    }
  in
  (* A task body shaped like the sequential [attempt]: [None] = the
     instance is outside the route, [Some (Found / Refuted)] = claim. *)
  let attempt_in route f s =
    let sp = Telemetry.begin_span "solver.attempt" in
    match f s with
    | Some (Found h) -> one route s sp Decided (Claim_sat (route, h))
    | Some (Refuted build) -> (
      match build s with
      | Some cert -> one route s sp Decided (Claim_unsat (route, cert))
      | None ->
        Error.internal
          "route %s refuted the instance but no checkable certificate \
           exists (cross-route disagreement)"
          (route_name route)
      | exception Budget.Exhausted reason ->
        one route s sp (Exhausted reason) Claim_none)
    | None -> one route s sp Inapplicable Claim_none
    | exception Budget.Exhausted reason ->
      one route s sp (Exhausted reason) Claim_none
  in
  let attempted route f = run_task (attempt_in route f) in
  let tasks = ref [] in
  let add t = tasks := t :: !tasks in
  (* Route guards mirror the sequential dispatcher and run on the caller
     where they are cheap; [decompose], which is budgeted, stays inside
     its task. *)
  (if Structure.size b = 2 then
     match Schaefer.Classify.classify b with
     | Some cls ->
       add
         (attempted (Schaefer_direct cls) (fun s ->
              match Schaefer.Uniform.solve_direct ~budget:s a b with
              | Schaefer.Uniform.Hom h -> Some (Found h)
              | Schaefer.Uniform.No_hom ->
                Some
                  (Refuted (fun s -> Certify.of_schaefer_direct ~budget:s a b cls))
              | Schaefer.Uniform.Not_applicable _ -> None))
     | None -> ());
  if
    Graph_dichotomy.is_undirected_graph b
    && Vocabulary.equal (Structure.vocabulary a) (Structure.vocabulary b)
    && Graph_dichotomy.complexity b = Graph_dichotomy.Polynomial
  then
    add
      (attempted (Graph_target Graph_dichotomy.Polynomial) (fun s ->
           Budget.check s;
           match Graph_dichotomy.solve a b with
           | Some h -> Some (Found h)
           | None -> Some (Refuted (fun _ -> Certify.of_graph a b))));
  if Structure.size b <= booleanize_threshold && Structure.size b >= 1 then
    add
      (run_task (fun s ->
           match Schaefer.Booleanize.solve a b with
           | Schaefer.Booleanize.Not_schaefer _ -> no_contribution
           | answer -> (
             let cls =
               let bb = Schaefer.Booleanize.encode_target b in
               Option.value ~default:Schaefer.Classify.Affine
                 (Schaefer.Classify.classify bb)
             in
             let route = Booleanized cls in
             let sp = Telemetry.begin_span "solver.attempt" in
             match answer with
             | Schaefer.Booleanize.Hom h ->
               one route s sp Decided (Claim_sat (route, h))
             | Schaefer.Booleanize.No_hom -> (
               match Certify.of_booleanized ~budget:s a b with
               | Some cert -> one route s sp Decided (Claim_unsat (route, cert))
               | None ->
                 Error.internal
                   "route %s refuted the instance but no checkable certificate \
                    exists (cross-route disagreement)"
                   (route_name route)
               | exception Budget.Exhausted reason ->
                 one route s sp (Exhausted reason) Claim_none)
             | Schaefer.Booleanize.Not_schaefer _ -> assert false)));
  Option.iter
    (fun forest -> add (attempted Acyclic (acyclic_route forest a b)))
    (Treewidth.Hypergraph.join_forest a);
  add
    (run_task (fun s ->
         match Treewidth.Td_solver.decompose a with
         | exception Budget.Exhausted reason ->
           {
             f_attempts =
               [
                 {
                   route = Bounded_treewidth max_treewidth;
                   nodes = Budget.spent s;
                   outcome = Exhausted reason;
                   counters = [];
                 };
               ];
             f_claim = Claim_none;
             f_spent = 0;
           }
         | td ->
           let w = Treewidth.Tree_decomposition.width td in
           if w > max_treewidth then no_contribution
           else attempt_in (Bounded_treewidth w) (treewidth_route td a b) s));
  (* The fused fallback: k-consistency then backtracking under whatever
     pruning the pass produced.  Always applicable, so the race always
     has at least one task that yields a verdict or an Unknown claim. *)
  add
    (run_task (fun s ->
         let attempts = ref [] in
         let push route nodes outcome counters =
           attempts := { route; nodes; outcome; counters } :: !attempts
         in
         let cons_route = Consistency_refutation consistency_k in
         let slice =
           match Budget.remaining_nodes s with
           | None -> Budget.slice s ()
           | Some r -> Budget.slice s ~max_nodes:(max 1 (r / 4)) ()
         in
         let engine_counters (st : Pebble.Game.stats) =
           [
             ("pebble.configs_ranked", st.Pebble.Game.configs_ranked);
             ("pebble.deaths_propagated", st.Pebble.Game.deaths_propagated);
             ("pebble.initial_configs", st.Pebble.Game.initial_configs);
             ("pebble.removed", st.Pebble.Game.removed);
             ("pebble.supports_built", st.Pebble.Game.supports_built);
           ]
         in
         let restriction = ref None in
         let sp = Telemetry.begin_span "solver.attempt" in
         let refutation =
           match Pebble.Game.run_traced ~budget:slice ~k:consistency_k a b with
           | [], trace, stats ->
             let outcome = Decided in
             ignore
               (Telemetry.end_span sp
                  ~fields:(span_fields cons_route (Budget.spent slice) outcome));
             push cons_route (Budget.spent slice) outcome (engine_counters stats);
             Some (Claim_unsat (cons_route, Certify.of_consistency ~trace b))
           | family, _, stats ->
             let singles = Hashtbl.create 256 in
             List.iter
               (fun cfg ->
                 match cfg with
                 | [ (x, v) ] -> Hashtbl.replace singles (x, v) ()
                 | _ -> ())
               family;
             restriction := Some (fun x v -> Hashtbl.mem singles (x, v));
             ignore
               (Telemetry.end_span sp
                  ~fields:(span_fields cons_route (Budget.spent slice) Pruned));
             push cons_route (Budget.spent slice) Pruned (engine_counters stats);
             None
           | exception Budget.Exhausted reason ->
             ignore
               (Telemetry.end_span sp
                  ~fields:
                    (span_fields cons_route (Budget.spent slice) (Exhausted reason)));
             push cons_route (Budget.spent slice) (Exhausted reason) [];
             None
         in
         match refutation with
         | Some claim -> { f_attempts = List.rev !attempts; f_claim = claim; f_spent = 0 }
         | None ->
           let base = Budget.spent s in
           let bt_nodes () = Budget.spent s - base in
           let sp = Telemetry.begin_span "solver.attempt" in
           let finish_bt outcome claim =
             ignore
               (Telemetry.end_span sp
                  ~fields:(span_fields Backtracking (bt_nodes ()) outcome));
             push Backtracking (bt_nodes ()) outcome [];
             { f_attempts = List.rev !attempts; f_claim = claim; f_spent = 0 }
           in
           (match Homomorphism.decide ?restrict:!restriction ~budget:s a b with
           | Budget.Sat h -> finish_bt Decided (Claim_sat (Backtracking, h))
           | Budget.Unsat -> (
             match Certify.of_backtracking ~budget:s a b with
             | Some cert -> finish_bt Decided (Claim_unsat (Backtracking, cert))
             | None ->
               Error.internal
                 "backtracking refuted the instance but the certifying search \
                  found a homomorphism (cross-route disagreement)"
             | exception Budget.Exhausted reason ->
               finish_bt (Exhausted reason) (Claim_unknown (Backtracking, reason)))
           | Budget.Unknown reason ->
             finish_bt (Exhausted reason) (Claim_unknown (Backtracking, reason)))));
  let tasks = Array.of_list (List.rev !tasks) in
  let attempts = ref [] in
  let winner = ref None in
  let fallback = ref None in
  let consume (ev : finisher Parallel.Race.event) =
    let f = ev.Parallel.Race.value in
    (* Merge the racer's spend before adjudicating, so the portfolio
       budget reflects all work performed on its behalf. *)
    Budget.charge budget f.f_spent;
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
    List.iter (fun at -> attempts := adjust at :: !attempts) f.f_attempts;
    if not lost then
      match f.f_claim with
      | Claim_none -> ()
      | Claim_unknown (route, reason) ->
        if !fallback = None then fallback := Some (route, reason)
      | Claim_sat (route, h) ->
        if Certificate.check a b (Certificate.Witness h) then begin
          winner := Some (Sat h, route);
          race := true
        end
        else Telemetry.count "solver.race.uncertified" 1
      | Claim_unsat (route, cert) ->
        if Certificate.check a b cert then begin
          winner := Some (Unsat cert, route);
          race := true
        end
        else Telemetry.count "solver.race.uncertified" 1
  in
  Parallel.Race.run ~threads ~tasks ~consume;
  let finish verdict route =
    ignore
      (Telemetry.end_span solve_span
         ~fields:
           [
             ("verdict", Telemetry.String (verdict_name verdict));
             ("route", Telemetry.String (route_name route));
             ("threads", Telemetry.Int threads);
           ]);
    { verdict; route; attempts = List.rev !attempts }
  in
  let global reason =
    match Budget.status budget with Some r -> r | None -> reason
  in
  match !winner with
  | Some (v, route) -> finish v route
  | None -> (
    match !fallback with
    | Some (route, reason) -> finish (Unknown (global reason)) route
    | None -> finish (Unknown (global Budget.Node_limit)) Backtracking)

let solve_inner ~max_treewidth ~consistency_k ~booleanize_threshold ~budget
    ~threads a b =
  if threads <= 1 then
    solve_seq ~max_treewidth ~consistency_k ~booleanize_threshold ~budget a b
  else
    solve_race ~max_treewidth ~consistency_k ~booleanize_threshold ~budget
      ~threads a b

(* ------------------------------------------------------------------ *)
(* Structural preprocessing (DESIGN.md section 16).                     *)
(*                                                                      *)
(* Ahead of the portfolio the source is decomposed into connected       *)
(* components (textually identical ones deduplicated), each component   *)
(* folded and cored by [Preprocess.shrink_source], and each shrunk      *)
(* piece solved independently against [B] — sequentially, or over a     *)
(* [Parallel.Pool] with racer budgets when [threads > 1] supplies more  *)
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
    let results = Array.make nparts None in
    if threads > 1 && nparts > 1 then begin
      (* Parts race across a pool: first refutation raises the shared
         cancel flag; every racer's spend is merged back afterwards. *)
      let shards = min threads nparts in
      let pool = Parallel.Pool.create shards in
      let cancel = ref false in
      let budgets = Array.init nparts (fun _ -> Budget.racer budget ~cancel) in
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.shutdown pool)
        (fun () ->
          Parallel.Pool.run pool (fun shard ->
              let i = ref shard in
              while !i < nparts do
                let r =
                  solve_piece ~threads:1 ~budget:budgets.(!i)
                    parts.(!i).Preprocess.shrink.Preprocess.structure
                in
                results.(!i) <- Some r;
                (match r.verdict with Unsat _ -> cancel := true | _ -> ());
                i := !i + shards
              done));
      Array.iter (fun s -> Budget.charge budget (Budget.spent s)) budgets
    end
    else
      (try
         Array.iteri
           (fun i p ->
             results.(i) <-
               Some (solve_piece ~threads ~budget p.Preprocess.shrink.Preprocess.structure);
             match results.(i) with
             | Some { verdict = Unsat _; _ } -> raise Exit
             | _ -> ())
           parts
       with Exit -> ());
    let attempts =
      pre_attempt
      :: List.concat_map
           (function Some (r : result) -> r.attempts | None -> [])
           (Array.to_list results)
    in
    let finish verdict route = { verdict; route; attempts } in
    let global reason =
      match Budget.status budget with Some r -> r | None -> reason
    in
    let refuted = ref None
    and unknown = ref None in
    Array.iteri
      (fun i r ->
        match r with
        | Some { verdict = Unsat c; route; _ } when !refuted = None ->
          refuted := Some (i, c, route)
        | Some { verdict = Unknown reason; route; _ } when !unknown = None ->
          unknown := Some (reason, route)
        | None when !unknown = None ->
          (* A part skipped after an earlier refutation decided the
             conjunction; never reached without one. *)
          ()
        | _ -> ())
      results;
    (match !refuted with
    | Some (i, cert, route) ->
      finish (Unsat (Preprocess.wrap_certificate src i cert)) route
    | None -> (
      match !unknown with
      | Some (reason, route) -> finish (Unknown (global reason)) route
      | None ->
        let witnesses =
          Array.map
            (function
              | Some r -> (
                match answer r with
                | Some h -> h
                | None -> assert false (* neither refuted nor unknown *))
              | None -> assert false)
            results
        in
        let h = Preprocess.assemble_witness src (fun i -> witnesses.(i)) in
        if not (Homomorphism.is_homomorphism a b h) then
          Error.internal
            "preprocess witness reassembly produced a non-homomorphism \
             (shrink certification bug)";
        let route =
          match results.(0) with Some r -> r.route | None -> Preprocess
        in
        finish (Sat h) route))

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
