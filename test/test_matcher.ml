(* Matcher tests: name similarities, synonym closure, structural measures,
   and the COMA-style composite matcher with capacity tuning. *)

module Name_sim = Uxsm_matcher.Name_sim
module Structure_sim = Uxsm_matcher.Structure_sim
module Coma = Uxsm_matcher.Coma
module Schema = Uxsm_schema.Schema
module Matching = Uxsm_mapping.Matching
module Executor = Uxsm_exec.Executor
module Obs = Uxsm_obs.Obs
module Prng = Uxsm_util.Prng

let test_tokenize () =
  let check name expect = Alcotest.(check (list string)) name expect (Name_sim.tokenize name) in
  check "BuyerPartID" [ "buyer"; "part"; "id" ];
  check "BUYER_PART_ID" [ "buyer"; "part"; "id" ];
  check "buyer-part.id" [ "buyer"; "part"; "id" ];
  check "POLine" [ "po"; "line" ];
  check "Item2" [ "item"; "2" ];
  check "EMail" [ "e"; "mail" ];
  Alcotest.(check (list string)) "empty" [] (Name_sim.tokenize "")

let test_levenshtein () =
  let check a b expect = Alcotest.(check int) (a ^ "/" ^ b) expect (Name_sim.levenshtein a b) in
  check "" "" 0;
  check "abc" "" 3;
  check "kitten" "sitting" 3;
  check "order" "order" 0;
  check "order" "odrer" 2

let test_similarity_ranges () =
  Alcotest.(check (float 1e-9)) "identical" 1.0 (Name_sim.edit_similarity "City" "city");
  Alcotest.(check (float 1e-9)) "identical trigram" 1.0 (Name_sim.trigram_similarity "City" "CITY");
  let s = Name_sim.combined "completely" "different" in
  Alcotest.(check bool) "in range" true (s >= 0.0 && s <= 1.0)

let test_synonym_closure () =
  let syn = Name_sim.synonyms () in
  (* order~purchase and order~po imply purchase~po (transitive closure) *)
  Alcotest.(check (float 1e-9)) "purchase~po" 1.0
    (Name_sim.token_similarity ~synonyms:syn "Purchase" "PO");
  Alcotest.(check (float 1e-9)) "deliver~ship" 1.0
    (Name_sim.token_similarity ~synonyms:syn "Deliver" "Ship");
  let custom = Name_sim.synonyms ~extra:[ ("foo", "bar") ] () in
  Alcotest.(check (float 1e-9)) "extra pair" 1.0
    (Name_sim.token_similarity ~synonyms:custom "foo" "bar")

let test_structure_sims () =
  let name_sim = Name_sim.combined ?synonyms:None in
  let s = Fixtures.fig1_source and t = Fixtures.fig1_target in
  (* identical leaf sets -> 1; disjoint -> below *)
  Alcotest.(check (float 1e-9)) "both leaves" 1.0
    (Structure_sim.children_similarity ~name_sim s Fixtures.s_bcn t Fixtures.t_icn);
  let ps = Structure_sim.path_similarity ~name_sim s Fixtures.s_bcn t Fixtures.t_icn in
  Alcotest.(check bool) "path sim in range" true (ps > 0.0 && ps < 1.0);
  Alcotest.(check (float 1e-9)) "soft set: both empty" 1.0
    (Structure_sim.soft_set_similarity ~name_sim [] []);
  Alcotest.(check (float 1e-9)) "soft set: one empty" 0.0
    (Structure_sim.soft_set_similarity ~name_sim [ "a" ] [])

let small_source =
  Schema.of_spec
    (Schema.spec "Order"
       [
         Schema.spec "Buyer" [ Schema.spec "City" []; Schema.spec "Street" [] ];
         Schema.spec "Lines" [ Schema.spec "Quantity" [] ];
       ])

let small_target =
  Schema.of_spec
    (Schema.spec "Purchase"
       [
         Schema.spec "Customer" [ Schema.spec "City" []; Schema.spec "Road" [] ];
         Schema.spec "Items" [ Schema.spec "Qty" [] ];
       ])

let test_matcher_finds_expected () =
  let m = Coma.run ~source:small_source ~target:small_target () in
  let has sp tp =
    let x = Option.get (Schema.find_by_path small_source sp) in
    let y = Option.get (Schema.find_by_path small_target tp) in
    Matching.score m x y <> None
  in
  Alcotest.(check bool) "Order~Purchase" true (has "Order" "Purchase");
  Alcotest.(check bool) "Buyer~Customer" true (has "Order.Buyer" "Purchase.Customer");
  Alcotest.(check bool) "City~City" true (has "Order.Buyer.City" "Purchase.Customer.City");
  Alcotest.(check bool) "Street~Road" true (has "Order.Buyer.Street" "Purchase.Customer.Road");
  Alcotest.(check bool) "Quantity~Qty" true (has "Order.Lines.Quantity" "Purchase.Items.Qty");
  Alcotest.(check bool) "no City~Qty" true (not (has "Order.Buyer.City" "Purchase.Items.Qty"))

let test_scores_quantized () =
  let m = Coma.run ~source:small_source ~target:small_target () in
  List.iter
    (fun (c : Matching.corr) ->
      let scaled = c.score *. 50.0 in
      Alcotest.(check (float 1e-6)) "multiple of 0.02" (Float.round scaled) scaled)
    (Matching.correspondences m)

let test_capacity_tuning () =
  List.iter
    (fun cap ->
      let m =
        Coma.run_with_capacity ~strategy:Coma.Context ~capacity:cap ~source:small_source
          ~target:small_target ()
      in
      Alcotest.(check int) (Printf.sprintf "capacity %d" cap) cap (Matching.capacity m))
    [ 1; 3; 5 ]

let test_both_direction_selection () =
  (* delta-band selection: kept pairs are within delta of both elements'
     best scores. *)
  let cfg = Coma.default_config Coma.Context in
  let m = Coma.run ~config:cfg ~source:small_source ~target:small_target () in
  let best tbl key v = Hashtbl.replace tbl key (max v (try Hashtbl.find tbl key with Not_found -> 0.0)) in
  let best_s = Hashtbl.create 8 and best_t = Hashtbl.create 8 in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let s = Coma.pair_score cfg small_source x small_target y in
          best best_s x s;
          best best_t y s)
        (Schema.elements small_target))
    (Schema.elements small_source);
  List.iter
    (fun (c : Matching.corr) ->
      let raw = Coma.pair_score cfg small_source c.source small_target c.target in
      Alcotest.(check bool) "within delta of row best" true
        (raw >= Hashtbl.find best_s c.source -. cfg.delta -. 1e-9);
      Alcotest.(check bool) "within delta of col best" true
        (raw >= Hashtbl.find best_t c.target -. cfg.delta -. 1e-9))
    (Matching.correspondences m)

let test_mediate () =
  let sources =
    [
      ("excel", Uxsm_workload.Standards.generate Uxsm_workload.Standards.excel);
      ("noris", Uxsm_workload.Standards.generate Uxsm_workload.Standards.noris);
      ("cidx", Uxsm_workload.Standards.generate Uxsm_workload.Standards.cidx);
    ]
  in
  let mediated = Uxsm_matcher.Mediate.build sources in
  (* The mediated schema covers at least the seed source. *)
  Alcotest.(check bool) "mediated at least as large as the seed" true
    (Schema.size mediated.Uxsm_matcher.Mediate.schema >= 48);
  List.iter
    (fun (name, _) ->
      let m = List.assoc name mediated.Uxsm_matcher.Mediate.matchings in
      Alcotest.(check bool) (name ^ " has correspondences") true (Matching.capacity m > 0);
      let cov = Uxsm_matcher.Mediate.coverage mediated name in
      Alcotest.(check bool) (name ^ " coverage above half") true (cov > 0.5))
    sources;
  (* Paths must stay unique after grafting. *)
  let med = mediated.Uxsm_matcher.Mediate.schema in
  List.iter
    (fun e ->
      Alcotest.(check bool) "path unique" true
        (Schema.find_by_path med (Schema.path_string med e) = Some e))
    (Schema.elements med);
  (* Probabilistic mediated-to-source mappings come out of the usual
     pipeline. *)
  let mset =
    Uxsm_mapping.Mapping_set.generate ~h:10
      (List.assoc "cidx" mediated.Uxsm_matcher.Mediate.matchings)
  in
  Alcotest.(check bool) "mappings derived" true (Uxsm_mapping.Mapping_set.size mset >= 2)

let test_mediate_validation () =
  match Uxsm_matcher.Mediate.build [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty source list should fail"

(* ---------------- interned scoring = per-string reference ---------------- *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Textbook full-matrix edit distance. *)
let naive_levenshtein a b =
  let la = String.length a and lb = String.length b in
  let d = Array.make_matrix (la + 1) (lb + 1) 0 in
  for i = 0 to la do
    d.(i).(0) <- i
  done;
  for j = 0 to lb do
    d.(0).(j) <- j
  done;
  for i = 1 to la do
    for j = 1 to lb do
      let sub = if Char.equal a.[i - 1] b.[j - 1] then 0 else 1 in
      d.(i).(j) <- Int.min (Int.min (d.(i - 1).(j) + 1) (d.(i).(j - 1) + 1)) (d.(i - 1).(j - 1) + sub)
    done
  done;
  d.(la).(lb)

(* Dice coefficient over string-keyed padded trigram sets. *)
let naive_trigram a b =
  let grams s =
    let s = "##" ^ String.lowercase_ascii s ^ "##" in
    List.sort_uniq String.compare (List.init (String.length s - 2) (fun i -> String.sub s i 3))
  in
  if a = "" && b = "" then 1.0
  else begin
    let ga = grams a and gb = grams b in
    let inter = List.length (List.filter (fun g -> List.mem g gb) ga) in
    2.0 *. float_of_int inter /. float_of_int (List.length ga + List.length gb)
  end

let short_string = QCheck.(string_gen_of_size (Gen.int_bound 9) (Gen.oneofl [ 'a'; 'b'; 'c'; 'A'; 'B'; '1'; '_' ]))

let prop_levenshtein_naive =
  QCheck.Test.make ~count:500 ~name:"levenshtein = full-matrix reference"
    (QCheck.pair short_string short_string) (fun (a, b) ->
      Name_sim.levenshtein a b = naive_levenshtein a b)

let prop_trigram_naive =
  QCheck.Test.make ~count:500 ~name:"trigram similarity = string-set reference"
    (QCheck.pair short_string short_string) (fun (a, b) ->
      bits_equal (Name_sim.trigram_similarity a b) (naive_trigram a b))

let label_pair = QCheck.(pair (int_range 1 1000000) (int_range 1 1000000))

let prop_combined_symmetric =
  QCheck.Test.make ~count:500 ~name:"combined a b = combined b a, bit for bit" label_pair
    (fun (s1, s2) ->
      let a = Fixtures.random_label (Prng.create s1) and b = Fixtures.random_label (Prng.create s2) in
      let syn = Name_sim.synonyms () in
      bits_equal (Name_sim.combined a b) (Name_sim.combined b a)
      && bits_equal (Name_sim.combined ~synonyms:syn a b) (Name_sim.combined ~synonyms:syn b a))

let prop_pair_table_eq_combined =
  QCheck.Test.make ~count:50 ~name:"pair_table = combined, bit for bit"
    QCheck.(triple (int_range 1 1000000) (int_range 0 12) (int_range 0 12))
    (fun (seed, na, nb) ->
      let prng = Prng.create seed in
      (* "" exercises the empty-label branches of every measure. *)
      let labels n = Array.init n (fun i -> if i = 0 then "" else Fixtures.random_label prng) in
      let a = labels na and b = labels nb in
      let synonyms = Name_sim.synonyms () in
      let table = Name_sim.pair_table ~synonyms a b in
      Array.for_all Fun.id
        (Array.mapi
           (fun i row ->
             Array.for_all Fun.id
               (Array.mapi (fun j v -> bits_equal v (Name_sim.combined ~synonyms a.(i) b.(j))) row))
           table))

let par = Executor.domains 2

(* The reference matrix is computed once per strategy (it dominates the
   cost) and compared with every backend's. *)
let matrix_matches_pair_score execs strategy source target =
  let cfg = Coma.default_config strategy in
  let reference =
    Array.init (Schema.size source) (fun x ->
        Array.init (Schema.size target) (fun y -> Coma.pair_score cfg source x target y))
  in
  let same a b = Array.length a = Array.length b && Array.for_all2 bits_equal a b in
  List.for_all
    (fun exec ->
      let m = Coma.score_matrix ~exec cfg source target in
      Array.length m = Array.length reference && Array.for_all2 same m reference)
    execs

let prop_score_matrix_eq_pair_score =
  QCheck.Test.make ~count:30 ~name:"score_matrix = pair_score, bit for bit (both strategies, both backends)"
    QCheck.(triple (int_range 1 1000000) (int_range 1 20) (int_range 1 20))
    (fun (seed, ns, nt) ->
      let prng = Prng.create seed in
      let source = Fixtures.random_labeled_schema prng ~n:ns in
      let target = Fixtures.random_labeled_schema prng ~n:nt in
      List.for_all
        (fun strategy -> matrix_matches_pair_score [ Executor.sequential; par ] strategy source target)
        [ Coma.Context; Coma.Fragment ])

let test_fig1_matrix () =
  let s = Fixtures.fig1_source and t = Fixtures.fig1_target in
  List.iter
    (fun (name, strategy) ->
      Alcotest.(check bool) name true (matrix_matches_pair_score [ Executor.sequential ] strategy s t))
    [ ("context", Coma.Context); ("fragment", Coma.Fragment) ]

(* Each distinct (source label, target label) pair of D7 is scored
   exactly once: 965 x 131, not once per element pair (1076 x 166). A
   slide back to per-element evaluation shows here, deterministically. *)
let test_d7_label_pairs () =
  let d = Uxsm_workload.Dataset.d7 in
  let source = Uxsm_workload.Standards.generate d.source in
  let target = Uxsm_workload.Standards.generate d.target in
  let pairs = Obs.counter "matcher.label_pairs" and span = Obs.span "matcher.score_matrix" in
  let p0 = Obs.value pairs and n0 = Obs.span_count span in
  let m = Coma.score_matrix (Coma.default_config d.strategy) source target in
  Alcotest.(check (pair int int)) "element pairs" (1076, 166) (Array.length m, Array.length m.(0));
  Alcotest.(check int) "label pairs" (965 * 131) (Obs.value pairs - p0);
  Alcotest.(check int) "one score_matrix span" 1 (Obs.span_count span - n0)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    Alcotest.test_case "tokenize" `Quick test_tokenize;
    Alcotest.test_case "levenshtein" `Quick test_levenshtein;
    Alcotest.test_case "similarity ranges" `Quick test_similarity_ranges;
    Alcotest.test_case "synonym closure" `Quick test_synonym_closure;
    Alcotest.test_case "structure similarities" `Quick test_structure_sims;
    Alcotest.test_case "matcher finds expected pairs" `Quick test_matcher_finds_expected;
    Alcotest.test_case "scores quantized to 0.02" `Quick test_scores_quantized;
    Alcotest.test_case "capacity tuning" `Quick test_capacity_tuning;
    Alcotest.test_case "both-direction delta selection" `Quick test_both_direction_selection;
    Alcotest.test_case "mediated schema bootstrap" `Slow test_mediate;
    Alcotest.test_case "mediate validation" `Quick test_mediate_validation;
    q prop_levenshtein_naive;
    q prop_trigram_naive;
    q prop_combined_symmetric;
    q prop_pair_table_eq_combined;
    q prop_score_matrix_eq_pair_score;
    Alcotest.test_case "score_matrix = pair_score on Figure 1" `Quick test_fig1_matrix;
    Alcotest.test_case "D7 scores each label pair once" `Quick test_d7_label_pairs;
  ]
