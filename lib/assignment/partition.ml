module Obs = Uxsm_obs.Obs

(* Observability: how much the component decomposition buys, and — for the
   incremental path — how much of a delta's work the component cache
   absorbs. *)
let c_runs = Obs.counter "partition.runs"
let c_components = Obs.counter "partition.components"
let c_component_edges = Obs.counter "partition.component_edges"
let c_merges = Obs.counter "partition.merges"
let c_delta_applies = Obs.counter "partition.delta_applies"
let c_components_reranked = Obs.counter "partition.components_reranked"
let c_components_reused = Obs.counter "partition.components_reused"
let s_top = Obs.span "partition.top"
let s_apply_delta = Obs.span "partition.apply_delta"

type component = {
  lefts : int list;
  rights : int list;
  edges : (int * int * float) list;
}

(* Union-find over left nodes [0, nl) and right nodes [nl, nl + nr). *)
let components g =
  let nl = Bipartite.n_left g in
  let nr = Bipartite.n_right g in
  let parent = Array.init (nl + nr) Fun.id in
  let rec find x = if parent.(x) = x then x else find parent.(x) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then parent.(max ra rb) <- min ra rb
  in
  List.iter (fun (i, j, _) -> union i (nl + j)) (Bipartite.edges g);
  let by_root : (int, (int * int * float) list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ((i, _, _) as e) ->
      let r = find i in
      let prev = try Hashtbl.find by_root r with Not_found -> [] in
      Hashtbl.replace by_root r (e :: prev))
    (Bipartite.edges g);
  let component_of_edges edges =
    let ls = ref [] and rs = ref [] in
    let module IS = Set.Make (Int) in
    let lset = ref IS.empty and rset = ref IS.empty in
    List.iter
      (fun (i, j, _) ->
        lset := IS.add i !lset;
        rset := IS.add j !rset)
      edges;
    ls := IS.elements !lset;
    rs := IS.elements !rset;
    { lefts = !ls; rights = !rs; edges = List.rev edges }
  in
  Hashtbl.fold (fun root edges acc -> (root, component_of_edges edges) :: acc) by_root []
  |> List.sort (fun (r1, _) (r2, _) -> Int.compare r1 r2)
  |> List.map snd

let pair_compare (i1, j1) (i2, j2) =
  match Int.compare i1 i2 with
  | 0 -> Int.compare j1 j2
  | c -> c

type level = {
  sc : float array;
  ix : int array;
  iy : int array;
}

(* The heap merge on scores alone: per merged entry, its score and the
   indices of the two entries it sums. Tie order is the contract (see
   [merge] in the interface), so the heap, the [seen] set, the push order
   and the [xa.(x) +. ya.(y)] sums must stay as they are. *)
let merge_scores ~h xa ya =
  Obs.incr c_merges;
  let nx = Array.length xa and ny = Array.length ya in
  let n = max 0 (min h (nx * ny)) in
  let sc = Array.make n 0.0 and ix = Array.make n 0 and iy = Array.make n 0 in
  let heap = Uxsm_util.Fheap.create () in
  let seen = Hashtbl.create 64 in
  let push x y =
    if x < nx && y < ny && not (Hashtbl.mem seen (x, y)) then begin
      Hashtbl.add seen (x, y) ();
      Uxsm_util.Fheap.push heap (-.(xa.(x) +. ya.(y))) (x, y)
    end
  in
  push 0 0;
  for k = 0 to n - 1 do
    match Uxsm_util.Fheap.pop heap with
    | None -> assert false
    | Some (neg_s, (x, y)) ->
      sc.(k) <- -.neg_s;
      ix.(k) <- x;
      iy.(k) <- y;
      push (x + 1) y;
      push x (y + 1)
  done;
  { sc; ix; iy }

let scores sols = Array.of_list (List.map (fun (s : Murty.solution) -> s.score) sols)

let merge ~h xs ys =
  let lv = merge_scores ~h (scores xs) (scores ys) in
  let xa = Array.of_list xs and ya = Array.of_list ys in
  List.init (Array.length lv.sc) (fun k ->
      {
        Murty.pairs = List.merge pair_compare xa.(lv.ix.(k)).pairs ya.(lv.iy.(k)).pairs;
        score = lv.sc.(k);
      })

let empty_solution : Murty.solution = { pairs = []; score = 0.0 }

(* Pair lists for the final top-h only: walk each solution's back-pointers
   down the levels (one per local list, shallowest first), gather the
   chosen local pairs and sort them once. Components are disjoint and
   every local list is sorted by [pair_compare], so this equals the chain
   of [List.merge]s a list fold would build. *)
let materialize levels locals =
  let levels = Array.of_list levels in
  let locals = Array.of_list (List.map Array.of_list locals) in
  let n = Array.length levels in
  if n = 0 then [ empty_solution ]
  else
    let final = levels.(n - 1) in
    List.init (Array.length final.sc) (fun k ->
        let pairs = ref [] and at = ref k in
        for i = n - 1 downto 0 do
          let l = levels.(i) in
          let local : Murty.solution = locals.(i).(l.iy.(!at)) in
          pairs := List.rev_append local.pairs !pairs;
          at := l.ix.(!at)
        done;
        { Murty.pairs = List.sort pair_compare !pairs; score = final.sc.(k) })

(* The reusable per-component state. Plain data throughout — no closures —
   so the catalog can own one per cached mapping set and a future session
   could serialize it. [rk_locals] holds, per component in component
   order, the component's ordered edge list (the reuse key) and its local
   top-h solution list mapped back to global indices. *)
type ranked = {
  rk_h : int;
  rk_order : [ `Index | `Degree ] option;
  rk_graph : Bipartite.t;
  rk_locals : ((int * int * float) list * Murty.solution list) list;
  rk_levels : level list;
      (* rk_levels nth i = the merge fold over locals 0..i as scores and
         back-pointers: entry k of level i combines entry [ix.(k)] of level
         i-1 (of the empty start solution when i = 0) with local solution
         [iy.(k)] of component i. The fold is left-associative and
         order-sensitive, so a delta confined to component k keeps levels
         0..k-1 verbatim and re-merges only the suffix from k on. *)
}

type delta = {
  d_set : (int * int * float) list;
  d_remove : (int * int) list;
  d_n_left : int;
  d_n_right : int;
}

let local_top ?order ~h comp =
  (* Re-index the component to a compact bipartite, rank it, and map the
     solutions back to global indices. *)
  let l_of = Hashtbl.create 16 and r_of = Hashtbl.create 16 in
  let l_back = Array.of_list comp.lefts and r_back = Array.of_list comp.rights in
  List.iteri (fun k i -> Hashtbl.replace l_of i k) comp.lefts;
  List.iteri (fun k j -> Hashtbl.replace r_of j k) comp.rights;
  let edges =
    List.map (fun (i, j, w) -> (Hashtbl.find l_of i, Hashtbl.find r_of j, w)) comp.edges
  in
  let sub =
    Bipartite.create ~n_left:(Array.length l_back) ~n_right:(Array.length r_back) edges
  in
  Murty.top ?order ~h sub
  |> List.map (fun (s : Murty.solution) ->
         {
           Murty.pairs = List.map (fun (i, j) -> (l_back.(i), r_back.(j))) s.pairs;
           score = s.score;
         })

(* Rank the components of [g], reusing any component whose ordered edge
   list is found in [cache] (a hit means identical member nodes and
   weights, so the cached global-index solution list is exactly what a
   fresh ranking would produce). Misses rank on the executor; the heap
   merge is order-sensitive, so it folds sequentially over the
   per-component lists in component order — the same fold Sequential
   performs. The cost hint sizes only the miss work for the executor's
   gate: Murty's warm-restart work per component grows with the solutions
   requested and the edges branched over, so h * miss-edges is the job's
   size in rough node-visit-equivalent units. *)
let rank_components ~exec ~order ~h ~cache ~reuse g =
  let comps = components g in
  Obs.incr c_runs;
  Obs.add c_components (List.length comps);
  List.iter (fun c -> Obs.add c_component_edges (List.length c.edges)) comps;
  let tagged = List.map (fun c -> (c, Hashtbl.find_opt cache c.edges)) comps in
  let misses = List.filter_map (function c, None -> Some c | _ -> None) tagged in
  let miss_edges = List.fold_left (fun acc c -> acc + List.length c.edges) 0 misses in
  let cost_hint = float_of_int h *. float_of_int miss_edges in
  (* lint: allow blocking-under-lock — reachable under Dataset's memo locks; the fan-out never blocks on the pool (try_lock or sequential fallback) and the jobs are pure compute, so the hold is bounded by the ranking work itself *)
  let fresh = Uxsm_exec.Executor.map_list ~cost_hint exec (local_top ?order ~h) misses in
  let rec stitch tagged fresh =
    match (tagged, fresh) with
    | [], [] -> []
    | (c, Some cached) :: rest, _ -> (c.edges, cached) :: stitch rest fresh
    | (c, None) :: rest, local :: fresh' -> (c.edges, local) :: stitch rest fresh'
    | _ -> assert false
  in
  let locals = stitch tagged fresh in
  (* The merge fold is left-associative, so any leading run of components
     whose keys match [reuse] position by position replays exactly — a
     cache hit on the same key yields the identical local list, hence the
     identical merge step. Resume the fold from the last surviving
     level. *)
  let old_locals, old_levels = reuse in
  let rec survive kept olds oldls news =
    match (olds, oldls, news) with
    | (ok, _) :: olds', l :: oldls', (nk, _) :: news' when ok = nk ->
      survive (l :: kept) olds' oldls' news'
    | _ -> (kept, news)
  in
  let kept_rev, rest = survive [] old_locals old_levels locals in
  let levels_rev =
    List.fold_left
      (fun levels (_, local) ->
        let prev = match levels with [] -> [| 0.0 |] | l :: _ -> l.sc in
        merge_scores ~h prev (scores local) :: levels)
      kept_rev rest
  in
  (locals, List.rev levels_rev, List.length misses)

let rank ?(exec = Uxsm_exec.Executor.sequential) ?order ~h g =
  if h <= 0 then invalid_arg "Partition.rank: h must be >= 1";
  Obs.time s_top @@ fun () ->
  let no_reuse = Hashtbl.create 1 in
  let locals, levels, _ =
    rank_components ~exec ~order ~h ~cache:no_reuse ~reuse:([], []) g
  in
  {
    rk_h = h;
    rk_order = order;
    rk_graph = g;
    rk_locals = locals;
    rk_levels = levels;
  }

let solutions r = materialize r.rk_levels (List.map snd r.rk_locals)
let graph r = r.rk_graph
let ranked_h r = r.rk_h
let ranked_components r = List.length r.rk_locals

let top ?(exec = Uxsm_exec.Executor.sequential) ?order ~h g =
  if h <= 0 then [] else solutions (rank ~exec ?order ~h g)

let delta_of_graphs ~old g' =
  let old_tbl = Hashtbl.create 64 in
  List.iter (fun (i, j, w) -> Hashtbl.replace old_tbl (i, j) w) (Bipartite.edges old);
  let new_tbl = Hashtbl.create 64 in
  List.iter (fun (i, j, _) -> Hashtbl.replace new_tbl (i, j) ()) (Bipartite.edges g');
  let set =
    List.filter
      (fun (i, j, w) ->
        match Hashtbl.find_opt old_tbl (i, j) with
        | Some w0 -> not (Float.equal w0 w)
        | None -> true)
      (Bipartite.edges g')
  in
  let remove =
    List.filter_map
      (fun (i, j, _) -> if Hashtbl.mem new_tbl (i, j) then None else Some (i, j))
      (Bipartite.edges old)
  in
  {
    d_set = set;
    d_remove = remove;
    d_n_left = Bipartite.n_left g';
    d_n_right = Bipartite.n_right g';
  }

let apply_delta ?(exec = Uxsm_exec.Executor.sequential) d r =
  Obs.time s_apply_delta @@ fun () ->
  Obs.incr c_delta_applies;
  let edges =
    Bipartite.apply_edge_delta ~set:d.d_set ~remove:d.d_remove (Bipartite.edges r.rk_graph)
  in
  let g = Bipartite.create ~n_left:d.d_n_left ~n_right:d.d_n_right edges in
  let cache = Hashtbl.create (List.length r.rk_locals) in
  List.iter (fun (key, local) -> Hashtbl.replace cache key local) r.rk_locals;
  let locals, levels, reranked =
    rank_components ~exec ~order:r.rk_order ~h:r.rk_h ~cache
      ~reuse:(r.rk_locals, r.rk_levels) g
  in
  Obs.add c_components_reranked reranked;
  Obs.add c_components_reused (List.length locals - reranked);
  { r with rk_graph = g; rk_locals = locals; rk_levels = levels }
