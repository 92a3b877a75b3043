(** Divide-and-conquer top-h assignment (the paper's Algorithm 5).

    A schema matching's bipartite graph is typically sparse, so it splits
    into many small connected components ("partitions"). The top-h
    assignments of the whole graph are obtained by ranking each component
    independently ({!Murty.top}) and merging the per-component lists with a
    heap — per-component rank beyond [h] can never contribute to the global
    top-h, which is what makes the merge sound. *)

type component = {
  lefts : int list;  (** left nodes of the component, ascending *)
  rights : int list;  (** right nodes of the component, ascending *)
  edges : (int * int * float) list;  (** edges, in global indices *)
}

val components : Bipartite.t -> component list
(** Maximal connected components of the correspondence graph that contain at
    least one edge (isolated nodes never affect scores). Deterministic
    order: by smallest left node. *)

val merge : h:int -> Murty.solution list -> Murty.solution list -> Murty.solution list
(** [merge ~h xs ys] — top-h combinations (concatenated pairs, summed
    scores) of two non-increasing solution lists, non-increasing. A thin
    wrapper over the score-only heap merge {!rank} folds with, so there is
    one merge code path. Tie order is part of the contract: on D7 all
    top-200 scores tie, so which mappings are served is decided by the
    heap, its [seen] set and the push order ([(ix + 1, iy)] before
    [(ix, iy + 1)]). A k-way or lazy enumeration would return the same
    scores in a different tie order, which is why neither is used.
    Exposed for testing. *)

val top :
  ?exec:Uxsm_exec.Executor.t ->
  ?order:[ `Index | `Degree ] ->
  h:int ->
  Bipartite.t ->
  Murty.solution list
(** Same contract as {!Murty.top} — identical score sequence — but computed
    component-wise. [exec] (default [Sequential]) ranks the components on a
    pool of domains; the heap merge runs sequentially in component order,
    so the result is identical for every backend (a tested property). *)

(** {1 Incremental maintenance}

    Correspondence updates touch only some connected components, so only
    those components need re-ranking before the heap merge re-folds over
    cached per-component lists. *)

type ranked
(** Reusable ranking state: the graph, per-component Murty lists (keyed by
    the component's ordered edge list) and the left fold of the heap merge
    over them as one {e level} per component: per merged entry, its score
    and the indices of the prefix entry and local solution it combines.
    No fold step builds pair lists; {!solutions} builds them for the final
    top-h only. Plain data — no closures — so a catalog can own one per
    cached mapping set. *)

type delta = {
  d_set : (int * int * float) list;
      (** edges to add or re-score, as [(left, right, weight)] *)
  d_remove : (int * int) list;  (** edges to drop *)
  d_n_left : int;  (** left size {e after} the delta (schemas only grow) *)
  d_n_right : int;  (** right size after the delta *)
}

val rank :
  ?exec:Uxsm_exec.Executor.t ->
  ?order:[ `Index | `Degree ] ->
  h:int ->
  Bipartite.t ->
  ranked
(** Rank every component and merge, keeping the per-component lists for
    later {!apply_delta} calls. [solutions (rank ~h g) = top ~h g] always.
    Raises [Invalid_argument] when [h <= 0]. *)

val solutions : ranked -> Murty.solution list
(** The merged global top-h, non-increasing. Builds the pair lists on each
    call (walking each solution's back-pointers down the levels and
    sorting the gathered local pairs once), so take it once per ranking;
    the state itself keeps no merged list. *)

val graph : ranked -> Bipartite.t
(** The graph this state ranks. *)

val ranked_h : ranked -> int
val ranked_components : ranked -> int

val delta_of_graphs : old:Bipartite.t -> Bipartite.t -> delta
(** The delta that rewrites [old]'s edge list into the new graph's, in the
    {!Bipartite.apply_edge_delta} algebra. When the new graph was itself
    produced by that algebra (the matching layer's [apply_delta]),
    applying the result reconstructs its edge list {e exactly}, order
    included. *)

val apply_delta : ?exec:Uxsm_exec.Executor.t -> delta -> ranked -> ranked
(** Apply a delta: rebuild the edge list via {!Bipartite.apply_edge_delta},
    recompute the component index, re-rank {e only} components whose edge
    list changed (cached lists cover the rest — membership, order and
    weights all equal means the cached ranking is exactly a fresh one),
    and resume the heap merge from the deepest surviving level: the fold
    is left-associative, so a delta confined to component [k] keeps
    levels [0..k-1] verbatim, re-merges only from [k] on, then
    materializes the final top-h's pair lists. Bumps
    [partition.components_reranked] / [partition.components_reused];
    re-ranked components run on [exec] with a [~cost_hint] covering only
    the miss work. The result equals [rank ~h] of the patched graph (a
    tested property). *)
