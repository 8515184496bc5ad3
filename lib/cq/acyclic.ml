open Relational

let is_acyclic q =
  let body, _ = Canonical.database_no_head q in
  Treewidth.Hypergraph.is_acyclic body

(* Small relational tables over canonical-database elements. *)
type table = { cols : int list; rows : Tuple.t list }

(* Linear-time dedup via the tuple hash table; row order is irrelevant to
   callers (the final result is sorted once in [evaluate]). *)
let dedup rows =
  let seen = Tuple.Table.create 64 in
  List.filter
    (fun r ->
      if Tuple.Table.mem seen r then false
      else begin
        Tuple.Table.replace seen r ();
        true
      end)
    rows

let project table keep =
  let positions =
    Array.of_list
      (List.filter_map
         (fun c ->
           let rec find i = function
             | [] -> None
             | c' :: _ when c' = c -> Some i
             | _ :: rest -> find (i + 1) rest
           in
           find 0 table.cols)
         keep)
  in
  let kept_cols =
    List.filter (fun c -> List.mem c table.cols) keep
  in
  {
    cols = kept_cols;
    rows =
      dedup (List.map (fun row -> Array.map (fun i -> row.(i)) positions) table.rows);
  }

let join t1 t2 =
  let shared =
    List.filter (fun c -> List.mem c t2.cols) t1.cols
  in
  let pos cols c =
    let rec find i = function
      | [] -> assert false
      | c' :: _ when c' = c -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 cols
  in
  let shared1 = Array.of_list (List.map (pos t1.cols) shared) in
  let shared2 = Array.of_list (List.map (pos t2.cols) shared) in
  let extra_positions =
    List.mapi (fun i c -> (i, c)) t2.cols
    |> List.filter (fun (_, c) -> not (List.mem c t1.cols))
  in
  let extra2 = Array.of_list (List.map fst extra_positions) in
  let extra2_cols = List.map snd extra_positions in
  (* Hash join: bucket t2 by its projection on the shared columns, then
     probe once per t1 row. *)
  let index = Tuple.Table.create (max 16 (2 * List.length t2.rows)) in
  List.iter
    (fun row ->
      let key = Array.map (fun i -> row.(i)) shared2 in
      Tuple.Table.replace index key
        (row :: (match Tuple.Table.find_opt index key with Some l -> l | None -> [])))
    t2.rows;
  let rows =
    List.concat_map
      (fun row1 ->
        let key = Array.map (fun i -> row1.(i)) shared1 in
        match Tuple.Table.find_opt index key with
        | None -> []
        | Some rows2 ->
          List.map
            (fun row2 -> Array.append row1 (Array.map (fun i -> row2.(i)) extra2))
            rows2)
      t1.rows
  in
  { cols = t1.cols @ extra2_cols; rows = dedup rows }

let evaluate q db =
  let body, index = Canonical.database_no_head q in
  match Treewidth.Hypergraph.join_forest body with
  | None -> invalid_arg "Acyclic.evaluate: query body is cyclic"
  | Some forest ->
    let plan = Treewidth.Join_plan.of_join_forest forest body db in
    let parent = Treewidth.Join_plan.parent plan in
    let head_elements =
      List.sort_uniq Int.compare
        (Array.to_list (Array.map (fun v -> List.assoc v index) q.Query.head))
    in
    (* One table per plan node: its candidate rows.  Head elements in no
       fact are the plan's singleton nodes over the whole universe. *)
    let tables =
      Array.init (Treewidth.Join_plan.node_count plan) (fun u ->
          {
            cols = Array.to_list (Treewidth.Join_plan.vars plan u);
            rows = Treewidth.Join_plan.candidate_rows plan u;
          })
    in
    (* Bottom-up: join each node into its parent, projecting the child to
       the columns still needed above (parent-shared + head columns). *)
    let roots = ref [] in
    Array.iter
      (fun f ->
        let p = parent.(f) in
        if p < 0 then roots := f :: !roots
        else begin
          let keep =
            List.filter
              (fun c -> List.mem c tables.(p).cols || List.mem c head_elements)
              tables.(f).cols
          in
          tables.(p) <- join tables.(p) (project tables.(f) keep)
        end)
      (Treewidth.Join_plan.order plan);
    (* Combine the roots (different trees share no elements). *)
    let full =
      List.fold_left
        (fun acc f -> join acc (project tables.(f) head_elements))
        { cols = []; rows = [ [||] ] }
        !roots
    in
    (* Project to the head, honouring order and repetitions. *)
    let col_pos c =
      let rec find i = function
        | [] -> assert false
        | c' :: _ when c' = c -> i
        | _ :: rest -> find (i + 1) rest
      in
      find 0 full.cols
    in
    let head_positions =
      Array.map (fun v -> col_pos (List.assoc v index)) q.Query.head
    in
    List.sort_uniq Tuple.compare
      (List.map
         (fun row -> Array.map (fun i -> row.(i)) head_positions)
         full.rows)
