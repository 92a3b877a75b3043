(* In-process traced replay for the `uxsm serve` benchmark.

     perfbench_trace.exe --requests REPLAY.jsonl --spans SPANS.jsonl

   REPLAY.jsonl holds one {"phase": "warmup"|"window", "line": REQUEST}
   object per line, in the order the benchmark sent the requests. The
   replay runs in a fresh process, so the first Dataset.matching call is
   cold. Each request calls the layers' public functions in dependency
   order, one span per call, so every cold artifact is built inside its
   own span:

     Protocol.parse_line
     Catalog.mapping_set / Catalog.prepared / Catalog.plan   (queries)
     Catalog.mapping_set / Mapping_set.average_o_ratio       (mappings)
     Ptq.execute on the cached plan                          (queries)
     Server.handle_request   (applies an update; otherwise all-cached)
     Json.to_string of the reply

   Each span carries the deltas of the library's Obs counters and spans
   across the call. Spans are kept in memory and written to SPANS.jsonl at
   the end. The same lines are also replayed untraced, through
   Server.handle_line on a second fresh server, interleaved request by
   request with the traced replay (which of the two goes first alternates),
   so both see the same heap and the same machine speed. The tracing
   overhead is the traced replay's wall time, less its attribution copies
   (the spans a live server would not run, see [dispatched]), minus the
   untraced replay's. Layers the stream never reaches (updates and
   o-ratios on a workload without them) are measured by a fixed probe on
   a second corpus, flagged "probe" in the metric's note. The last line of
   standard output is one JSON object with the per-layer metrics. *)

module Json = Uxsm_util.Json
module Timing = Uxsm_util.Timing
module Obs = Uxsm_obs.Obs
module Schema = Uxsm_schema.Schema
module Matching = Uxsm_mapping.Matching
module Mapping_set = Uxsm_mapping.Mapping_set
module Ptq = Uxsm_ptq.Ptq
module Dataset = Uxsm_workload.Dataset
module Gen_doc = Uxsm_workload.Gen_doc
module Catalog = Uxsm_server.Catalog
module Server = Uxsm_server.Server
module Protocol = Uxsm_server.Protocol

let corpus = "d7"
let dataset_seed = 42
let doc_seed = 7
let doc_reps = 5
let spec = Protocol.From_dataset (Dataset.d7, dataset_seed)

type span = {
  req : int;  (* replay index; -1 for set-up and probe calls *)
  phase : string;
  layer : string;  (* the public function called *)
  start : float;
  stop : float;
  miss : bool;  (* the catalog built an artifact during the call *)
  counters : (string * int) list;  (* nonzero Obs counter deltas *)
  obs_spans : (string * (int * float)) list;  (* nonzero Obs span deltas *)
}

let recorded = ref []
let origin = Timing.now_mono ()

let counter_delta before after =
  List.filter_map
    (fun (n, v) ->
      let d = v - Option.value ~default:0 (List.assoc_opt n before) in
      if d <> 0 then Some (n, d) else None)
    after

let span_delta before after =
  List.filter_map
    (fun (n, (c, s)) ->
      let c0, s0 = Option.value ~default:(0, 0.0) (List.assoc_opt n before) in
      if c - c0 <> 0 then Some (n, (c - c0, s -. s0)) else None)
    after

let misses cat = (Catalog.cache_stats cat).Uxsm_server.Lru.misses

let traced ?cat ~req ~phase layer f =
  let c0 = Obs.counters () and s0 = Obs.spans () in
  let m0 = Option.fold ~none:0 ~some:misses cat in
  let start = Timing.now_mono () in
  let r = f () in
  let stop = Timing.now_mono () in
  let m1 = Option.fold ~none:0 ~some:misses cat in
  recorded :=
    {
      req;
      phase;
      layer;
      start;
      stop;
      miss = m1 > m0;
      counters = counter_delta c0 (Obs.counters ());
      obs_spans = span_delta s0 (Obs.spans ());
    }
    :: !recorded;
  r

let ok_exn what = function
  | Ok v -> v
  | Error e -> failwith (what ^ ": " ^ e)

let register srv name = ignore (ok_exn "register" (Catalog.register (Server.catalog srv) ~name ~doc_seed spec))

(* ---------------------------------------------------------------- replay *)

let traced_request srv ~req ~phase line =
  let cat = Server.catalog srv in
  let tr layer f = traced ~cat ~req ~phase layer f in
  let env = ok_exn "parse" (Result.map_error (fun e -> e.Protocol.message)
                              (tr "Protocol.parse_line" (fun () -> Protocol.parse_line line))) in
  (match env.Protocol.req with
  | Protocol.Query { pattern; h; tau; k; evaluator; _ } ->
    ignore (tr "Catalog.mapping_set" (fun () -> Catalog.mapping_set cat corpus ~h));
    ignore (tr "Catalog.prepared" (fun () -> Catalog.prepared cat corpus ~h ~tau));
    let plan =
      ok_exn "plan"
        (tr "Catalog.plan" (fun () -> Catalog.plan cat corpus ~pattern ~h ~tau ~k ~force:evaluator))
    in
    ignore (tr "Ptq.execute" (fun () -> Ptq.execute plan))
  | Protocol.Mappings { h; _ } ->
    let mset = ok_exn "mappings" (tr "Catalog.mapping_set" (fun () -> Catalog.mapping_set cat corpus ~h)) in
    ignore (tr "Mapping_set.average_o_ratio" (fun () -> Mapping_set.average_o_ratio mset))
  | _ -> ());
  let layer =
    match env.Protocol.req with
    | Protocol.Update _ -> "Server.handle_request/update"
    | _ -> "Server.handle_request"
  in
  let reply = tr layer (fun () -> Server.handle_request srv env) in
  if Json.member "ok" reply <> Some (Json.Bool true) then
    failwith ("request failed in-process: " ^ Json.to_string reply);
  ignore (tr "Json.to_string" (fun () -> Json.to_string reply))

(* The traced and the untraced replay, interleaved. Returns the traced
   server and the two wall times. *)
let replay lines =
  let plain = Server.create () in
  register plain corpus;
  let srv = Server.create () in
  traced ~cat:(Server.catalog srv) ~req:(-1) ~phase:"setup" "Catalog.register" (fun () ->
      register srv corpus);
  let traced_s = ref 0.0 and untraced_s = ref 0.0 in
  let timed acc f =
    let t0 = Timing.now_mono () in
    f ();
    acc := !acc +. (Timing.now_mono () -. t0)
  in
  List.iteri
    (fun req (phase, line) ->
      let untraced () = timed untraced_s (fun () -> ignore (Server.handle_line plain line)) in
      let traced () = timed traced_s (fun () -> traced_request srv ~req ~phase line) in
      if req mod 2 = 0 then (untraced (); traced ()) else (traced (); untraced ()))
    lines;
  (srv, !traced_s, !untraced_s)

(* Updates and o-ratios on a second corpus, for streams without them:
   three single-correspondence re-scores spread over the matching. *)
let probe srv ~updates ~o_ratio =
  let cat = Server.catalog srv in
  let tr layer f = traced ~cat ~req:(-1) ~phase:"probe" layer f in
  let name = "probe" in
  register srv name;
  if o_ratio then begin
    let mset = ok_exn "probe" (Catalog.mapping_set cat name ~h:30) in
    for _ = 1 to 5 do
      ignore (tr "Mapping_set.average_o_ratio" (fun () -> Mapping_set.average_o_ratio mset))
    done
  end;
  if updates then begin
    ignore (ok_exn "probe" (Catalog.prepared cat name ~h:100 ~tau:0.2));
    let m = ok_exn "probe" (Catalog.matching cat name) in
    let corrs = Array.of_list (Matching.correspondences m) in
    let n = Array.length corrs in
    List.iter
      (fun i ->
        let c = corrs.(i * n / 4) in
        let delta =
          {
            Matching.empty_delta with
            Matching.set_scores =
              [ ( Schema.path_string (Matching.source m) c.Matching.source,
                  Schema.path_string (Matching.target m) c.Matching.target,
                  0.5 ) ];
          }
        in
        ignore (ok_exn "probe" (tr "Catalog.update" (fun () -> Catalog.update cat ~name delta))))
      [ 1; 2; 3 ]
  end

(* --------------------------------------------------------------- metrics *)

let dur s = s.stop -. s.start
let ctr name s = Option.value ~default:0 (List.assoc_opt name s.counters)

let obs_seconds name s =
  match List.assoc_opt name s.obs_spans with Some (_, sec) -> sec | None -> 0.0

let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let mean_ms l =
  match l with [] -> 0.0 | _ -> 1000.0 *. sumf dur l /. float_of_int (List.length l)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0 else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let is_update s = s.layer = "Server.handle_request/update" || s.layer = "Catalog.update"

(* Spans a live server pays for: builds on catalog misses, the request
   itself (an update is applied there), parse and encode. The attribution
   copies (cache hits, Ptq.execute, o-ratio) are excluded. *)
let dispatched s =
  match s.layer with
  | "Catalog.mapping_set" | "Catalog.prepared" | "Catalog.plan" -> s.miss
  | "Protocol.parse_line" | "Server.handle_request" | "Server.handle_request/update"
  | "Json.to_string" ->
    true
  | _ -> false

let metrics spans ~n_requests ~window_requests ~traced_s ~untraced_s =
  let layer name = List.filter (fun s -> s.layer = name) spans in
  let missed name = List.filter (fun s -> s.miss) (layer name) in
  let from_probe l = if List.exists (fun s -> s.phase = "probe") l then "probe; " else "" in
  let m = ref [] in
  let put name value unit note = m := (name, value, unit, note) :: !m in
  let count l = Printf.sprintf "n=%d" (List.length l) in
  let matching = layer "Dataset.matching" in
  put "matcher.match_s" (sumf dur matching) "s" "Dataset.matching on a cold process";
  let docs = layer "Gen_doc.generate" in
  put "doc.generate_ms" (1000.0 *. median (List.map dur docs)) "ms"
    (Printf.sprintf "median of %d" (List.length docs));
  let gens = missed "Catalog.mapping_set" in
  let per l c = ratio (sumi (ctr c) l) (List.length l) in
  put "mapping.generate_ms" (mean_ms gens) "ms" ("Catalog.mapping_set misses, " ^ count gens);
  put "murty.solves_per_generate" (per gens "murty.solves") "count" (count gens);
  put "partition.components_per_generate" (per gens "partition.components") "count" (count gens);
  let ups = List.filter is_update spans in
  let n_ups = float_of_int (max 1 (List.length ups)) in
  let note_ups = from_probe ups ^ count ups in
  put "mapping.update_ms" (1000.0 *. sumf (obs_seconds "partition.apply_delta") ups /. n_ups) "ms"
    ("partition.apply_delta per update, " ^ note_ups);
  put "catalog.update_ms" (mean_ms ups) "ms" ("whole update, " ^ note_ups);
  let reranked = sumi (ctr "partition.components_reranked") ups in
  let reused = sumi (ctr "partition.components_reused") ups in
  put "partition.rerank_ratio" (ratio reranked (reranked + reused)) "ratio"
    (Printf.sprintf "%s%d reranked / %d components" (from_probe ups) reranked (reranked + reused));
  let ors = layer "Mapping_set.average_o_ratio" in
  put "mapping.o_ratio_ms" (mean_ms ors) "ms" (from_probe ors ^ count ors);
  let trees = missed "Catalog.prepared" in
  put "blocktree.build_ms" (mean_ms trees) "ms" ("Catalog.prepared misses, " ^ count trees);
  put "blocktree.update_ms" (1000.0 *. sumf (obs_seconds "blocktree.update") ups /. n_ups) "ms"
    ("per update, " ^ note_ups);
  let kept = sumi (ctr "blocktree.update.nodes_reused") ups in
  let rebuilt = sumi (ctr "blocktree.update.nodes_rebuilt") ups in
  put "blocktree.reuse_ratio" (ratio kept (kept + rebuilt)) "ratio"
    (Printf.sprintf "%s%d reused / %d nodes" (from_probe ups) kept (kept + rebuilt));
  let plans = missed "Catalog.plan" in
  put "plan.compile_ms" (mean_ms plans) "ms" ("Catalog.plan misses, " ^ count plans);
  put "plan.per_block_share"
    (ratio (sumi (ctr "plan.auto_per_block") plans) (sumi (ctr "plan.compiled") plans))
    "ratio" (count plans);
  let execs = layer "Ptq.execute" in
  put "ptq.execute_ms" (mean_ms execs) "ms" ("cached plans, " ^ count execs);
  put "ptq.matcher_invocations_per_query" (per execs "ptq.matcher_invocations") "count" (count execs);
  put "ptq.join_pairs_per_query" (per execs "ptq.join_pairs") "count" (count execs);
  put "ptq.shared_evaluations_per_query" (per execs "ptq.shared_evaluations") "count" (count execs);
  let in_requests = List.filter (fun s -> s.req >= 0) spans in
  let per_req c = ratio (sumi (ctr c) in_requests) n_requests in
  put "exec.parallel_calls_per_request" (per_req "exec.parallel_calls") "count"
    (Printf.sprintf "%d requests" n_requests);
  put "exec.sequential_by_gate_per_request" (per_req "exec.sequential_by_gate") "count"
    (Printf.sprintf "%d requests" n_requests);
  let parses = layer "Protocol.parse_line" and encodes = layer "Json.to_string" in
  put "protocol.parse_us" (1000.0 *. mean_ms parses) "us" (count parses);
  put "protocol.encode_us" (1000.0 *. mean_ms encodes) "us" (count encodes);
  let copies = List.filter (fun s -> s.req >= 0 && not (dispatched s)) spans in
  let copies_s = sumf dur copies in
  let overhead = traced_s -. copies_s -. untraced_s in
  put "trace.overhead_ms" (1000.0 *. overhead /. float_of_int (max 1 n_requests)) "ms"
    (Printf.sprintf "per request: traced %.3f s - %d attribution copies %.3f s - untraced %.3f s"
       traced_s (List.length copies) copies_s untraced_s);
  put "trace.overhead_share" (if untraced_s > 0.0 then overhead /. untraced_s else 0.0) "ratio"
    "of the untraced replay";
  let window = List.filter (fun s -> s.phase = "window" && dispatched s) spans in
  let dispatch_ms = 1000.0 *. sumf dur window /. float_of_int (max 1 window_requests) in
  (dispatch_ms, List.rev !m)

(* ------------------------------------------------------------------ main *)

let read_replay path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l when String.trim l = "" -> go acc
    | l -> (
      match Json.of_string l with
      | Ok j -> (
        match (Json.member "phase" j, Json.member "line" j) with
        | Some (Json.String p), Some (Json.String line) -> go ((p, line) :: acc)
        | _ -> failwith ("bad replay entry: " ^ l))
      | Error e -> failwith e)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let span_json s =
  Json.Assoc
    [
      ("req", Json.Int s.req);
      ("phase", Json.String s.phase);
      ("layer", Json.String s.layer);
      ("parent", Json.String (if s.req >= 0 then Printf.sprintf "request/%d" s.req else s.phase));
      ("start_ms", Json.Float (1000.0 *. (s.start -. origin)));
      ("end_ms", Json.Float (1000.0 *. (s.stop -. origin)));
      ("miss", Json.Bool s.miss);
      ("counters", Json.Assoc (List.map (fun (n, v) -> (n, Json.Int v)) s.counters));
      ( "obs_spans",
        Json.Assoc
          (List.map
             (fun (n, (c, sec)) ->
               (n, Json.Assoc [ ("count", Json.Int c); ("seconds", Json.Float sec) ]))
             s.obs_spans) );
    ]

let () =
  let requests = ref "" and spans_out = ref "" in
  Arg.parse
    [
      ("--requests", Arg.Set_string requests, "FILE replay stream (JSON lines)");
      ("--spans", Arg.Set_string spans_out, "FILE where the spans are written");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench_trace --requests FILE --spans FILE";
  if !requests = "" || !spans_out = "" then (prerr_endline "need --requests and --spans"; exit 2);
  let lines = read_replay !requests in
  let m =
    traced ~req:(-1) ~phase:"setup" "Dataset.matching" (fun () ->
        Dataset.matching ~seed:dataset_seed Dataset.d7)
  in
  for _ = 1 to doc_reps do
    ignore
      (traced ~req:(-1) ~phase:"setup" "Gen_doc.generate" (fun () ->
           Gen_doc.generate ~seed:doc_seed (Matching.source m)))
  done;
  let srv, traced_s, untraced_s = replay lines in
  let spans = List.rev !recorded in
  let has l = List.exists (fun s -> s.layer = l) spans in
  let updates = not (List.exists is_update spans) in
  let o_ratio = not (has "Mapping_set.average_o_ratio") in
  if updates || o_ratio then probe srv ~updates ~o_ratio;
  let spans = List.rev !recorded in
  let n_requests = List.length lines in
  let window_requests = List.length (List.filter (fun (p, _) -> p = "window") lines) in
  let dispatch_ms, ms = metrics spans ~n_requests ~window_requests ~traced_s ~untraced_s in
  let oc = open_out !spans_out in
  List.iter (fun s -> output_string oc (Json.to_string (span_json s) ^ "\n")) spans;
  close_out oc;
  print_endline
    (Json.to_string
       (Json.Assoc
          [
            ("server.dispatch_ms", Json.Float dispatch_ms);
            ( "metrics",
              Json.Assoc
                (List.map
                   (fun (name, v, unit, note) ->
                     ( name,
                       Json.Assoc
                         [ ("value", Json.Float v); ("unit", Json.String unit);
                           ("note", Json.String note) ] ))
                   ms) );
          ]))
