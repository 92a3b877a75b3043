(** A COMA++-style composite schema matcher.

    Combines the linguistic ({!Name_sim}) and structural
    ({!Structure_sim}) measures under one of two strategies mirroring the
    COMA++ options of Table II:

    - {e Context} ([c]): name + root-to-element path similarity — elements
      match when their names {e and} their positions agree;
    - {e Fragment} ([f]): name + children/leaf similarity — subtree shapes
      match locally, ignoring where the fragment sits.

    Candidate selection keeps pairs whose combined score clears [threshold]
    and lies within [delta] of the best score of {e both} elements involved
    (COMA++'s "both directions" selection), which yields the sparse,
    locally-ambiguous matchings the paper's uncertainty model feeds on. *)

type strategy =
  | Context
  | Fragment

type config = {
  strategy : strategy;
  threshold : float;  (** minimum combined score for a correspondence *)
  delta : float;  (** tolerance below an element's best score *)
  name_weight : float;  (** weight of the name measure (structure gets 1 - w) *)
  synonyms : Name_sim.synonyms option;
}

val default_config : strategy -> config
(** threshold 0.55, delta 0.12, name weight 0.55, default synonym table. *)

val pair_score :
  config ->
  Uxsm_schema.Schema.t ->
  Uxsm_schema.Schema.element ->
  Uxsm_schema.Schema.t ->
  Uxsm_schema.Schema.element ->
  float
(** Combined score of one element pair under the configuration: the
    per-string reference, evaluating {!Name_sim.combined} afresh on every
    label it compares. *)

val score_matrix :
  ?exec:Uxsm_exec.Executor.t ->
  config ->
  Uxsm_schema.Schema.t ->
  Uxsm_schema.Schema.t ->
  float array array
(** [score_matrix cfg source target] is the raw |S| x |T| score matrix:
    [.(x).(y)] equals [pair_score cfg source x target y] bit for bit (a
    tested property). Labels are interned per schema and
    {!Name_sim.pair_table} scores each distinct (source label, target
    label) pair once; every element pair is then a fold of lookups over
    its label, ancestor, child, leaf and parent label ids, in the same
    order as the reference's folds. [exec] (default [Sequential]) fans
    out the label rows and then the element rows; the tables are
    completely filled before either fan-out reads them. Timed by the
    [matcher.score_matrix] span. *)

val run :
  ?exec:Uxsm_exec.Executor.t ->
  ?config:config ->
  source:Uxsm_schema.Schema.t ->
  target:Uxsm_schema.Schema.t ->
  unit ->
  Uxsm_mapping.Matching.t
(** Match two schemas (default config: {!default_config}[ Context]).

    [exec] (default [Sequential]) scores the |S| x |T| matrix row-parallel
    on a pool of domains; candidate selection stays sequential, so the
    correspondence list is identical for every backend (a tested
    property). *)

val run_with_capacity :
  ?exec:Uxsm_exec.Executor.t ->
  strategy:strategy ->
  capacity:int ->
  source:Uxsm_schema.Schema.t ->
  target:Uxsm_schema.Schema.t ->
  unit ->
  Uxsm_mapping.Matching.t
(** Binary-search the threshold so the matching has (approximately, then
    exactly by truncation of the lowest-scored pairs) [capacity]
    correspondences — used to reproduce Table II's "Cap." column. *)
