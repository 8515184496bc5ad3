open Relational

(** Certificate construction for the dispatcher routes outside the
    Schaefer layer (which has its own {!Schaefer.Certify}).

    All builders are untrusted; their output is validated by the trusted
    {!Certificate.check}.  Each returns [None] only when the instance is
    not actually refutable by the route's argument — [Core.Solver] treats
    that as an internal error (a cross-route disagreement). *)

val trivial_unsat : Structure.t -> Structure.t -> Certificate.t option
(** Empty target universe, nonempty source: a childless case split. *)

val of_schaefer_direct :
  ?budget:Budget.t ->
  Structure.t ->
  Structure.t ->
  Schaefer.Classify.schaefer_class ->
  Certificate.t option

val of_booleanized :
  ?budget:Budget.t -> Structure.t -> Structure.t -> Certificate.t option

val of_graph : Structure.t -> Structure.t -> Certificate.t option
(** Empty-relation fact, or an odd closed walk of the source paired with a
    proper 2-colouring of the (bipartite) target. *)

val of_acyclic :
  Treewidth.Hypergraph.join_forest -> Structure.t -> Structure.t -> Certificate.t option
(** The join forest the acyclic route's plan was built on, for the checker
    to re-run the semi-joins on. *)

val of_treewidth :
  Treewidth.Join_plan.t -> Structure.t -> Structure.t -> Certificate.t option
(** The bags and parent pointers of a plan built by
    {!Treewidth.Join_plan.of_decomposition}, for the checker to re-run the
    dynamic program on. *)

val of_consistency :
  trace:(Certificate.config * int) list -> Structure.t -> Certificate.t
(** Wrap the pebble game's forth-failure log as a Spoiler-win derivation. *)

val of_backtracking :
  ?budget:Budget.t -> Structure.t -> Structure.t -> Certificate.t option
(** Independent exhaustive search ({!Certificate.refute_by_search});
    [None] means that search found a homomorphism — a disagreement.
    @raise Budget.Exhausted when [budget] runs out. *)
