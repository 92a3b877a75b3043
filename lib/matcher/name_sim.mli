(** Name-based similarity measures, in the style of COMA++'s linguistic
    matchers: edit distance, character trigrams, and token-set similarity
    with synonym and abbreviation support. All similarities are in
    [\[0, 1\]]. *)

val tokenize : string -> string list
(** Split an element name into lowercase tokens at underscores, hyphens,
    digit boundaries and camelCase humps:
    [tokenize "BuyerPartID" = \["buyer"; "part"; "id"\]]. *)

val levenshtein : string -> string -> int
(** Classic edit distance (insert/delete/substitute, unit costs). *)

val edit_similarity : string -> string -> float
(** [1 - levenshtein a b / max |a| |b|], case-insensitive; 1 for two empty
    strings. *)

val trigram_similarity : string -> string -> float
(** Dice coefficient over padded character trigrams, case-insensitive. *)

type synonyms

val synonyms : ?extra:(string * string) list -> unit -> synonyms
(** A synonym/abbreviation table seeded with common e-commerce vocabulary
    (buyer/customer, seller/supplier/vendor, order/purchase, id/identifier,
    ...) plus [extra] pairs. Symmetric and reflexive. *)

val token_similarity : ?synonyms:synonyms -> string -> string -> float
(** Soft token-set similarity: average over each side's tokens of the best
    counterpart score (synonym = 1, otherwise max of edit and trigram),
    symmetrized. This is the primary linguistic measure. *)

val combined : ?synonyms:synonyms -> string -> string -> float
(** Weighted combination of token (0.8), trigram (0.1) and edit (0.1)
    similarities — the default name matcher. Token similarity dominates so
    that synonym renamings across standards (DeliverTo / ShipTo) stay close
    to exact-name matches. *)

(** {1 Interned labels} *)

val pair_table :
  ?exec:Uxsm_exec.Executor.t ->
  ?synonyms:synonyms ->
  string array ->
  string array ->
  float array array
(** [pair_table sources targets] is the dense table of
    [combined ?synonyms sources.(i) targets.(j)] at [.(i).(j)], equal bit
    for bit. Each label is prepared once (lowercase form, token ids,
    sorted trigram codes), each (source token, target token) pair is
    scored once into a token table, and only then are the label rows
    filled, fanned out over [exec]; nothing is filled lazily, so the
    tables are safe to read from any domain. Adds
    [Array.length sources * Array.length targets] to the
    [matcher.label_pairs] counter. *)

val soft_match : float array array -> int array -> int array -> float
(** [soft_match table a b] is {!Structure_sim.soft_set_similarity} over
    ids, with [table.(i).(j)] as the similarity of row id [i] and column
    id [j] (the ids of [a] index rows, those of [b] columns). The
    backward direction reads [table] transposed, so it equals the string
    version only for a symmetric measure such as {!combined}. Folds run
    in array order, as the list version's do, so sums round alike. *)
