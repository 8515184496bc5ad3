open Relational
open Treewidth

type route = Acyclic | Bounded_treewidth of int | Backtracking

let route_name = function
  | Acyclic -> "acyclic-stream"
  | Bounded_treewidth w -> Printf.sprintf "treewidth-stream(%d)" w
  | Backtracking -> "backtracking-stream"

type plan = { route : route; seq : Homomorphism.mapping Seq.t }

let metered route seq =
  Telemetry.count (Printf.sprintf "enumerate.route.%s" (route_name route)) 1;
  Seq.map
    (fun h ->
      Telemetry.count "enumerate.answers" 1;
      h)
    seq

(* The cheapest applicable route, with its join plan when it has one. *)
let choose ~max_width a b =
  match Hypergraph.join_forest a with
  | Some forest -> (Acyclic, Some (Join_plan.of_join_forest forest a b))
  | None ->
    let td = Td_solver.decompose a in
    let w = Tree_decomposition.width td in
    if w <= max_width then (Bounded_treewidth w, Some (Join_plan.of_decomposition td a b))
    else (Backtracking, None)

let plan ?(max_width = 3) ?(budget = Budget.unlimited) a b =
  let route, join_plan = choose ~max_width a b in
  let seq =
    match join_plan with
    | Some p -> Join_plan.stream ~budget p
    | None -> Homomorphism.search_seq ~budget a b
  in
  { route; seq = metered route seq }

let stream ?max_width ?limit ?budget a b =
  let { seq; _ } = plan ?max_width ?budget a b in
  match limit with Some l -> Seq.take l seq | None -> seq

(* ------------------------------------------------------------------ *)
(* Counting with the component product rule.                           *)
(* ------------------------------------------------------------------ *)

let count ?(max_width = 3) ?(budget = Budget.unlimited) a b =
  Budget.check budget;
  (* Only the count-compatible shrink is used: component decomposition
     with textual dedup ([#hom] factors exactly over components, and a
     deduplicated component contributes its count once per copy).  The
     per-part fold/core retraction in [shrink] is deliberately ignored —
     retraction preserves existence, not counts. *)
  let src = Preprocess.shrink_source ~budget a in
  Array.fold_left
    (fun acc (part : Preprocess.part) ->
      if acc = 0 then 0
      else
        let piece =
          match choose ~max_width part.piece b with
          | _, Some p -> Join_plan.count ~budget p
          | _, None -> Homomorphism.count ~budget part.piece b
        in
        Homomorphism.checked_mul acc
          (Homomorphism.checked_pow piece part.copies))
    1 src.parts
