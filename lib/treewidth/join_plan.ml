open Relational

type node = {
  vars : int array;  (* Sorted distinct source elements. *)
  parent : int;
  key : int array;  (* Positions in [vars] of the elements shared with the parent. *)
  in_parent : int array;  (* Positions of the same elements in the parent's [vars]. *)
  rows : Budget.t -> (int array -> unit) -> unit;
      (* Candidate rows aligned with [vars], each a fresh array. *)
}

type t = {
  source : Structure.t;
  target : Structure.t;
  nodes : node array;
  order : int array;  (* Children before parents. *)
  children : int list array;
}

(* Positions in [child] and in [parent] (both sorted) of their common
   elements, in ascending element order. *)
let shared_positions child parent =
  let rec go i j acc =
    if i = Array.length child || j = Array.length parent then List.rev acc
    else if child.(i) < parent.(j) then go (i + 1) j acc
    else if child.(i) > parent.(j) then go i (j + 1) acc
    else go (i + 1) (j + 1) ((i, j) :: acc)
  in
  let pairs = go 0 0 [] in
  (Array.of_list (List.map fst pairs), Array.of_list (List.map snd pairs))

let sorted_vars elements = Array.of_list (List.sort_uniq Int.compare elements)

let first_index (t : Tuple.t) x =
  let rec find j = if t.(j) = x then j else find (j + 1) in
  find 0

(* Nodes given as (vars, parent, rows); elements of the source in no
   node's [vars] get singleton roots over the whole target universe. *)
let make source target specs =
  let m = Structure.size target in
  let covered = Array.make (Structure.size source) false in
  Array.iter (fun (vars, _, _) -> Array.iter (fun x -> covered.(x) <- true) vars) specs;
  (* Rows emitted downwards, so the pass stores them in ascending order. *)
  let singleton x =
    ( [| x |],
      -1,
      fun budget emit ->
        for v = m - 1 downto 0 do
          Budget.tick budget;
          emit [| v |]
        done )
  in
  let free = List.filter (fun x -> not covered.(x)) (Structure.universe source) in
  let specs = Array.append specs (Array.of_list (List.map singleton free)) in
  let nodes =
    Array.map
      (fun (vars, parent, rows) ->
        let key, in_parent =
          if parent < 0 then ([||], [||])
          else
            let parent_vars, _, _ = specs.(parent) in
            shared_positions vars parent_vars
        in
        { vars; parent; key; in_parent; rows })
      specs
  in
  let k = Array.length nodes in
  let depth = Array.make k (-1) in
  let rec depth_of u =
    if depth.(u) < 0 then
      depth.(u) <- (if nodes.(u).parent < 0 then 0 else 1 + depth_of nodes.(u).parent);
    depth.(u)
  in
  let order = Array.init k Fun.id in
  Array.stable_sort (fun u v -> compare (depth_of v) (depth_of u)) order;
  let children = Array.make k [] in
  for u = k - 1 downto 0 do
    let p = nodes.(u).parent in
    if p >= 0 then children.(p) <- u :: children.(p)
  done;
  { source; target; nodes; order; children }

(* A fact's candidate rows: the target tuples of its relation that repeat
   wherever the fact repeats, read at the first occurrence of each
   element. *)
let fact_node target (name, (t : Tuple.t)) =
  let vars = sorted_vars (Tuple.elements t) in
  let first = Array.map (first_index t) t in
  let pos = Array.map (first_index t) vars in
  let consistent (t' : Tuple.t) =
    Array.length t' = Array.length t
    &&
    let ok = ref true in
    Array.iteri (fun i f -> if t'.(i) <> t'.(f) then ok := false) first;
    !ok
  in
  let rows budget emit =
    match Structure.relation target name with
    | exception Not_found -> ()
    | rel ->
      (* Emitted in reverse fold order, so the pass stores them in fold
         order. *)
      List.iter emit
        (Relation.fold
           (fun t' acc ->
             Budget.tick budget;
             if consistent t' then Array.map (fun p -> t'.(p)) pos :: acc else acc)
           rel [])
  in
  (vars, rows)

(* A bag's candidate rows: its assignments, in lexicographic order, that
   map every fact of the source lying inside the bag into the target. *)
let bag_rows source target vars budget emit =
  let m = Structure.size target and d = Array.length vars in
  let locals =
    Structure.fold_tuples
      (fun name t acc ->
        if Array.for_all (fun x -> Array.mem x vars) t then
          let rel = try Some (Structure.relation target name) with Not_found -> None in
          (rel, Array.map (first_index vars) t) :: acc
        else acc)
      source []
  in
  let image = Array.make d 0 in
  let holds (rel, pos) =
    match rel with
    | Some r -> Relation.mem r (Array.map (fun j -> image.(j)) pos)
    | None -> false
  in
  let rec assign i =
    if i = d then begin
      Budget.tick budget;
      if List.for_all holds locals then emit (Array.copy image)
    end
    else
      for v = 0 to m - 1 do
        image.(i) <- v;
        assign (i + 1)
      done
  in
  assign 0

let of_join_forest (forest : Hypergraph.join_forest) source target =
  make source target
    (Array.mapi
       (fun i fact ->
         let vars, rows = fact_node target fact in
         (vars, forest.parent.(i), rows))
       forest.facts)

let of_decomposition td source target =
  if not (Tree_decomposition.validate_structure source td) then
    invalid_arg "Join_plan.of_decomposition: invalid tree decomposition for the source";
  (* Validation puts every element in some bag, so no singleton nodes are
     added and node [i] is bag [i]. *)
  let adj = Tree_decomposition.adjacency td in
  let k = Tree_decomposition.node_count td in
  let parent = Array.make k (-1) and seen = Array.make k false in
  let rec root u p =
    seen.(u) <- true;
    parent.(u) <- p;
    List.iter (fun v -> if not seen.(v) then root v u) adj.(u)
  in
  for u = 0 to k - 1 do
    if not seen.(u) then root u (-1)
  done;
  make source target
    (Array.mapi
       (fun u bag ->
         let vars = sorted_vars bag in
         (vars, parent.(u), bag_rows source target vars))
       td.Tree_decomposition.bags)

let node_count plan = Array.length plan.nodes

let vars plan u = plan.nodes.(u).vars

let parent plan = Array.map (fun node -> node.parent) plan.nodes

let order plan = Array.copy plan.order

let candidate_rows plan u =
  let rows = ref [] in
  plan.nodes.(u).rows Budget.unlimited (fun row -> rows := row :: !rows);
  !rows

let project pos (row : int array) = Array.map (fun i -> row.(i)) pos

(* The one bottom-up pass.  In [order], a node's row survives when every
   child table holds the row's projection on that child's shared
   elements; survivors are stored under their own parent-shared key.
   [None] as soon as a node keeps no row. *)
let reduce ~budget plan =
  Budget.check budget;
  let tables = Array.map (fun _ -> Tuple.Table.create 16) plan.nodes in
  let survives u =
    let node = plan.nodes.(u) and table = tables.(u) in
    node.rows budget (fun row ->
        if
          List.for_all
            (fun c -> Tuple.Table.mem tables.(c) (project plan.nodes.(c).in_parent row))
            plan.children.(u)
        then begin
          let key = project node.key row in
          Tuple.Table.replace table key
            (row :: Option.value ~default:[] (Tuple.Table.find_opt table key))
        end);
    Tuple.Table.length table > 0
  in
  if Array.for_all survives plan.order then Some tables else None

(* Top-down descent, parents before children.  The parent's chosen row
   fixes each node's key, and the pass kept the parent row only because
   that key has stored rows, so no lookup comes back empty. *)
let descend ~budget plan tables ~yield =
  let mapping = Array.make (Structure.size plan.source) 0 in
  let chosen = Array.make (Array.length plan.nodes) [||] in
  let rec go i =
    if i < 0 then begin
      let h = Array.copy mapping in
      assert (Homomorphism.is_homomorphism plan.source plan.target h);
      yield h
    end
    else begin
      let u = plan.order.(i) in
      let node = plan.nodes.(u) in
      let key = if node.parent < 0 then [||] else project node.in_parent chosen.(node.parent) in
      List.iter
        (fun row ->
          Budget.tick budget;
          chosen.(u) <- row;
          Array.iteri (fun j x -> mapping.(x) <- row.(j)) node.vars;
          go (i - 1))
        (Tuple.Table.find tables.(u) key)
    end
  in
  go (Array.length plan.order - 1)

let stream ?(budget = Budget.unlimited) plan =
  Homomorphism.generator (fun ~yield ->
      Option.iter (fun tables -> descend ~budget plan tables ~yield) (reduce ~budget plan))

let solve ?budget plan = Option.map fst (Seq.uncons (stream ?budget plan))

let count ?(budget = Budget.unlimited) plan =
  match reduce ~budget plan with
  | None -> 0
  | Some tables ->
    (* [counts.(u)] maps a parent-shared key to the number of answers on
       [u]'s subtree extending it. *)
    let counts = Array.map (fun _ -> Tuple.Table.create 16) plan.nodes in
    Array.fold_left
      (fun total u ->
        let weight row =
          List.fold_left
            (fun acc c ->
              Homomorphism.checked_mul acc
                (Tuple.Table.find counts.(c) (project plan.nodes.(c).in_parent row)))
            1 plan.children.(u)
        in
        Tuple.Table.iter
          (fun key rows ->
            Tuple.Table.replace counts.(u) key
              (List.fold_left (fun acc row -> Homomorphism.checked_add acc (weight row)) 0 rows))
          tables.(u);
        if plan.nodes.(u).parent < 0 then
          Homomorphism.checked_mul total (Tuple.Table.find counts.(u) [||])
        else total)
      1 plan.order
