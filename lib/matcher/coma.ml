module Schema = Uxsm_schema.Schema
module Matching = Uxsm_mapping.Matching
module Executor = Uxsm_exec.Executor
module Obs = Uxsm_obs.Obs

type strategy =
  | Context
  | Fragment

type config = {
  strategy : strategy;
  threshold : float;
  delta : float;
  name_weight : float;
  synonyms : Name_sim.synonyms option;
}

let default_config strategy =
  { strategy; threshold = 0.55; delta = 0.12; name_weight = 0.55; synonyms = Some (Name_sim.synonyms ()) }

let pair_score cfg source x target y =
  let name_sim = Name_sim.combined ?synonyms:cfg.synonyms in
  let name = name_sim (Schema.label source x) (Schema.label target y) in
  let structure =
    match cfg.strategy with
    | Context -> Structure_sim.path_similarity ~name_sim source x target y
    | Fragment ->
      (* Subtree shape plus the enclosing fragment's name: without the
         parent term, every leaf with the same label ties at 1.0 across
         all contexts. *)
      let c = Structure_sim.children_similarity ~name_sim source x target y in
      let l = Structure_sim.leaf_similarity ~name_sim source x target y in
      let p = Structure_sim.parent_similarity ~name_sim source x target y in
      (c +. l +. p) /. 3.0
  in
  (cfg.name_weight *. name) +. ((1.0 -. cfg.name_weight) *. structure)

(* A schema's labels interned: the distinct labels in first-occurrence
   order and each element's label id. *)
let intern s =
  let ids = Hashtbl.create 64 and labels = ref [] in
  let id l =
    match Hashtbl.find_opt ids l with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids l i;
      labels := l :: !labels;
      i
  in
  let of_element = Array.init (Schema.size s) (fun e -> id (Schema.label s e)) in
  (Array.of_list (List.rev !labels), of_element)

(* Nearest parent first, the order of [List.rev (Schema.path ...)] that
   the reference folds in: float sums depend on order. *)
let rec ancestors s e =
  match Schema.parent s e with
  | None -> []
  | Some p -> p :: ancestors s p

let leaves s e = List.filter (Schema.is_leaf s) (Schema.subtree_elements s e)

(* A parent is a label set of at most one: soft-matching two singletons
   is their name similarity, and the empty cases give 1 and 0, exactly as
   [Structure_sim.parent_similarity]. *)
let parent s e = Option.to_list (Schema.parent s e)

(* One (source, target) pair is a few table lookups per ancestor, child
   or leaf pair — order tens of node-visit-equivalent units. Sizes the
   matrix job for the executor's parallelism gate. *)
let pair_units = 20.0

let s_score_matrix = Obs.span "matcher.score_matrix"

let score_matrix ?(exec = Executor.sequential) cfg source target =
  Obs.time s_score_matrix @@ fun () ->
  let ns = Schema.size source and nt = Schema.size target in
  let src_labels, sid = intern source and tgt_labels, tid = intern target in
  let names = Name_sim.pair_table ~exec ?synonyms:cfg.synonyms src_labels tgt_labels in
  let name x y = names.(sid.(x)).(tid.(y)) in
  (* [soft related] soft-matches the labels of [related source x] and
     [related target y], from label-id arrays built once per element. *)
  let soft related =
    let ids s lid = Array.init (Schema.size s) (fun e -> Array.of_list (List.map (Array.get lid) (related s e))) in
    let a = ids source sid and b = ids target tid in
    fun x y -> Name_sim.soft_match names a.(x) b.(y)
  in
  let structure =
    match cfg.strategy with
    | Context ->
      let context = soft ancestors in
      fun x y -> (0.6 *. name x y) +. (0.4 *. context x y)
    | Fragment ->
      let children = soft Schema.children and leaves = soft leaves and parent = soft parent in
      fun x y -> (children x y +. leaves x y +. parent x y) /. 3.0
  in
  let cost_hint = float_of_int (ns * nt) *. pair_units in
  (* lint: allow blocking-under-lock — reachable under the catalog shard and Dataset memo locks; the fan-out never blocks on the pool (try_lock or sequential fallback) and scoring is pure compute, so the hold is bounded by the matrix itself *)
  Executor.map_array ~cost_hint exec
    (fun x ->
      Array.init nt (fun y ->
          (cfg.name_weight *. name x y) +. ((1.0 -. cfg.name_weight) *. structure x y)))
    (Array.init ns Fun.id)

(* The candidates a selection draws from: pairs scoring at least 0.05,
   plus each element's best score for the both-directions band. *)
type candidates = {
  pairs : (int * int * float) array;
  best_s : float array;
  best_t : float array;
}

let candidates matrix ~nt =
  let ns = Array.length matrix in
  let best_s = Array.make ns 0.0 and best_t = Array.make nt 0.0 in
  let pairs = ref [] in
  for x = ns - 1 downto 0 do
    for y = nt - 1 downto 0 do
      let s = matrix.(x).(y) in
      if s > best_s.(x) then best_s.(x) <- s;
      if s > best_t.(y) then best_t.(y) <- s;
      if s >= 0.05 then pairs := (x, y, s) :: !pairs
    done
  done;
  { pairs = Array.of_list !pairs; best_s; best_t }

let selected c ~threshold ~delta (x, y, s) =
  s >= threshold && s >= c.best_s.(x) -. delta && s >= c.best_t.(y) -. delta

let count_selected c ~threshold ~delta =
  Array.fold_left (fun n p -> if selected c ~threshold ~delta p then n + 1 else n) 0 c.pairs

(* Decreasing score, then ascending (source, target): a total order. *)
let select c ~threshold ~delta =
  List.filter (selected c ~threshold ~delta) (Array.to_list c.pairs)
  |> List.sort (fun (x1, y1, s1) (x2, y2, s2) ->
         match Float.compare s2 s1 with
         | 0 -> (
           match Int.compare x1 x2 with
           | 0 -> Int.compare y1 y2
           | c -> c)
         | c -> c)

(* COMA++ reports coarsely rounded scores (the paper's Figure 1:
   .75/.84/.83/.84); quantizing to 0.02 reproduces the exact ties that make
   many mappings equally plausible. *)
let clamp_score s = min 1.0 (max 0.01 (Float.round (s *. 50.0) /. 50.0))

let matching_of_pairs ~source ~target pairs =
  Matching.create ~source ~target
    (List.map (fun (x, y, s) -> { Matching.source = x; target = y; score = clamp_score s }) pairs)

let run ?(exec = Executor.sequential) ?config ~source ~target () =
  let cfg =
    match config with
    | Some c -> c
    | None -> default_config Context
  in
  let c = candidates (score_matrix ~exec cfg source target) ~nt:(Schema.size target) in
  matching_of_pairs ~source ~target (select c ~threshold:cfg.threshold ~delta:cfg.delta)

let run_with_capacity ?(exec = Executor.sequential) ~strategy ~capacity ~source ~target () =
  if capacity < 0 then invalid_arg "Coma.run_with_capacity";
  let base = default_config strategy in
  let c = candidates (score_matrix ~exec base source target) ~nt:(Schema.size target) in
  let count_at threshold delta = count_selected c ~threshold ~delta in
  (* Lower thresholds only add pairs; binary-search the largest threshold
     whose selection still reaches [capacity], then truncate the tail. If
     even the lowest threshold is short, widen the delta band. *)
  let rec with_delta delta tries =
    let lo = 0.05 in
    if count_at lo delta < capacity then
      if tries = 0 then (lo, delta) else with_delta (delta *. 2.0) (tries - 1)
    else begin
      let rec search lo hi i =
        if i = 0 then lo
        else begin
          let mid = (lo +. hi) /. 2.0 in
          if count_at mid delta >= capacity then search mid hi (i - 1)
          else search lo mid (i - 1)
        end
      in
      (search lo 0.99 20, delta)
    end
  in
  let threshold, delta = with_delta base.delta 6 in
  let pairs = select c ~threshold ~delta in
  (* Truncate like COMA selects: every element's best counterpart first
     (rank 1 on either side), then second choices, and so on; score breaks
     ties within a rank. Plain top-score truncation would concentrate the
     whole budget on a few strongly-ambiguous elements. *)
  let rank_of =
    let ranks_s = Array.make (Schema.size source) 0 and ranks_t = Array.make (Schema.size target) 0 in
    let note ranks e =
      ranks.(e) <- ranks.(e) + 1;
      ranks.(e)
    in
    (* pairs are sorted by decreasing score, so per-element ranks follow. *)
    List.map
      (fun ((x, y, _) as pair) ->
        let rs = note ranks_s x and rt = note ranks_t y in
        (Int.min rs rt, pair))
      pairs
  in
  let kept =
    List.stable_sort (fun (r1, (_, _, s1)) (r2, (_, _, s2)) ->
        match Int.compare r1 r2 with
        | 0 -> Float.compare s2 s1
        | c -> c)
      rank_of
    |> List.filteri (fun i _ -> i < capacity)
    |> List.map snd
  in
  matching_of_pairs ~source ~target kept
