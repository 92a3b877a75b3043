module Executor = Uxsm_exec.Executor
module Obs = Uxsm_obs.Obs

let is_upper c = c >= 'A' && c <= 'Z'
let is_lower c = c >= 'a' && c <= 'z'
let is_digit c = c >= '0' && c <= '9'
let is_alpha c = is_upper c || is_lower c

let tokenize name =
  let n = String.length name in
  let out = ref [] in
  let buf = Buffer.create 8 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := String.lowercase_ascii (Buffer.contents buf) :: !out;
      Buffer.clear buf
    end
  in
  for i = 0 to n - 1 do
    let c = name.[i] in
    if not (is_alpha c || is_digit c) then flush ()
    else begin
      let boundary =
        i > 0
        &&
        let p = name.[i - 1] in
        (* aB | 9a | a9 boundaries, and AAb -> A|Ab for acronym suffixes *)
        (is_lower p && is_upper c)
        || (is_digit p && is_alpha c)
        || (is_alpha p && is_digit c)
        || (is_upper p && is_upper c && i + 1 < n && is_lower name.[i + 1])
      in
      if boundary then flush ();
      Buffer.add_char buf c
    end
  done;
  flush ();
  List.rev !out

(* Two rolling rows, swapped rather than copied: the table fill runs this
   once per distinct label pair, so it is the matcher's inner loop. *)
let levenshtein a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = ref (Array.init (lb + 1) Fun.id) in
    let cur = ref (Array.make (lb + 1) 0) in
    for i = 1 to la do
      let p = !prev and c = !cur in
      c.(0) <- i;
      let ai = String.unsafe_get a (i - 1) in
      for j = 1 to lb do
        let cost = if Char.equal ai (String.unsafe_get b (j - 1)) then 0 else 1 in
        c.(j) <- Int.min (Int.min (c.(j - 1) + 1) (p.(j) + 1)) (p.(j - 1) + cost)
      done;
      prev := c;
      cur := p
    done;
    !prev.(lb)
  end

(* A string prepared once for repeated comparison: its lowercase form and
   its padded trigrams ("##" ^ s ^ "##") as sorted, distinct int codes of
   three bytes each, so a Dice coefficient is a merge of two int arrays. *)
type chars = {
  lower : string;
  grams : int array;
}

let prepare s =
  let lower = String.lowercase_ascii s in
  let padded = "##" ^ lower ^ "##" in
  let code i =
    (Char.code padded.[i] lsl 16) lor (Char.code padded.[i + 1] lsl 8) lor Char.code padded.[i + 2]
  in
  { lower; grams = Array.of_list (List.sort_uniq Int.compare (List.init (String.length padded - 2) code)) }

let edit_chars a b =
  let la = String.length a.lower and lb = String.length b.lower in
  if la = 0 && lb = 0 then 1.0
  else 1.0 -. (float_of_int (levenshtein a.lower b.lower) /. float_of_int (Int.max la lb))

let trigram_chars a b =
  if String.length a.lower = 0 && String.length b.lower = 0 then 1.0
  else begin
    let ga = a.grams and gb = b.grams in
    let na = Array.length ga and nb = Array.length gb in
    let rec inter i j acc =
      if i = na || j = nb then acc
      else
        let c = Int.compare ga.(i) gb.(j) in
        if c = 0 then inter (i + 1) (j + 1) (acc + 1)
        else if c < 0 then inter (i + 1) j acc
        else inter i (j + 1) acc
    in
    let total = na + nb in
    if total = 0 then 0.0 else 2.0 *. float_of_int (inter 0 0 0) /. float_of_int total
  end

let edit_similarity a b = edit_chars (prepare a) (prepare b)
let trigram_similarity a b = trigram_chars (prepare a) (prepare b)

type synonyms = (string, string list) Hashtbl.t

let default_pairs =
  [
    ("buyer", "customer");
    ("buyer", "purchaser");
    ("seller", "supplier");
    ("seller", "vendor");
    ("supplier", "vendor");
    ("order", "purchase");
    ("order", "po");
    ("id", "identifier");
    ("id", "code");
    ("id", "number");
    ("no", "number");
    ("no", "id");
    ("no", "identifier");
    ("num", "number");
    ("num", "no");
    ("qty", "quantity");
    ("amount", "total");
    ("price", "cost");
    ("unit", "per");
    ("contact", "party");
    ("name", "label");
    ("street", "road");
    ("zip", "postcode");
    ("zip", "postal");
    ("email", "mail");
    ("phone", "telephone");
    ("invoice", "bill");
    ("ship", "deliver");
    ("shipping", "delivery");
    ("line", "item");
    ("date", "day");
    ("country", "nation");
  ]

(* The table is closed transitively: pairs (order, purchase) and (order, po)
   put purchase, po and order in one class, so purchase ~ po too. *)
let synonyms ?(extra = []) () =
  let pairs =
    List.map
      (fun (a, b) -> (String.lowercase_ascii a, String.lowercase_ascii b))
      (default_pairs @ extra)
  in
  let class_of : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let rec find w =
    match Hashtbl.find_opt class_of w with
    | None -> w
    | Some p -> if String.equal p w then w else find p
  in
  let union a b =
    let ra = find a and rb = find b in
    if not (String.equal ra rb) then Hashtbl.replace class_of ra rb
  in
  List.iter
    (fun (a, b) ->
      if not (Hashtbl.mem class_of a) then Hashtbl.replace class_of a a;
      if not (Hashtbl.mem class_of b) then Hashtbl.replace class_of b b;
      union a b)
    pairs;
  let members : (string, string list) Hashtbl.t = Hashtbl.create 64 in
  (* lint: allow nondet-iter — synonym classes are consumed by membership tests only, so member order never escapes *)
  Hashtbl.iter
    (fun w _ ->
      let r = find w in
      let prev = try Hashtbl.find members r with Not_found -> [] in
      Hashtbl.replace members r (w :: prev))
    class_of;
  let tbl : synonyms = Hashtbl.create 64 in
  (* lint: allow nondet-iter — each class writes a disjoint key set; order is irrelevant *)
  Hashtbl.iter
    (fun _ ws -> List.iter (fun w -> Hashtbl.replace tbl w (List.filter (fun x -> x <> w) ws)) ws)
    members;
  tbl

let are_synonyms tbl a b =
  String.equal a b
  ||
  match Hashtbl.find_opt tbl a with
  | Some l -> List.mem b l
  | None -> false

(* Monomorphic [Stdlib.max]: the same [if a >= b then a else b] choice. *)
let fmax (a : float) b = if a >= b then a else b

let token_score syn a b =
  match syn with
  | Some tbl when are_synonyms tbl a.lower b.lower -> 1.0
  | _ -> if String.equal a.lower b.lower then 1.0 else fmax (edit_chars a b) (trigram_chars a b)

(* Single-letter tokens ("EMail" -> ["e"; "mail"]) are treated as noise
   whenever longer tokens exist. *)
let drop_noise tokens =
  match List.filter (fun t -> String.length t > 1) tokens with
  | [] -> tokens
  | meaningful -> meaningful

let token_similarity ?synonyms a b =
  let ta = drop_noise (tokenize a) and tb = drop_noise (tokenize b) in
  match (ta, tb) with
  | [], [] -> 1.0
  | [], _ | _, [] -> 0.0
  | _ ->
    let ta = List.map prepare ta and tb = List.map prepare tb in
    let best_against other t = List.fold_left (fun acc u -> fmax acc (token_score synonyms t u)) 0.0 other in
    let avg side other =
      List.fold_left (fun acc t -> acc +. best_against other t) 0.0 side
      /. float_of_int (List.length side)
    in
    (avg ta tb +. avg tb ta) /. 2.0

let combined ?synonyms a b =
  (0.8 *. token_similarity ?synonyms a b)
  +. (0.1 *. trigram_similarity a b)
  +. (0.1 *. edit_similarity a b)

(* Interned labels. Scoring a schema pair evaluates [combined] on every
   (source label, target label) pair, and labels are built from a small
   token vocabulary, so each distinct label and token is prepared once
   and every score comes from a table filled up front. *)

(* The average-best-match of [token_similarity] (and of
   [Structure_sim.soft_set_similarity]) over ids into [table], where
   [table.(i).(j)] scores row id [i] against column id [j]. The backward
   direction reads the same cells transposed: exact because both tables
   hold symmetric measures ([token_score] and [combined]). *)
let soft_match table a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 && nb = 0 then 1.0
  else if na = 0 || nb = 0 then 0.0
  else begin
    let forward = ref 0.0 in
    for i = 0 to na - 1 do
      let row = table.(a.(i)) in
      let best = ref 0.0 in
      for j = 0 to nb - 1 do
        best := fmax !best row.(b.(j))
      done;
      forward := !forward +. !best
    done;
    let backward = ref 0.0 in
    for j = 0 to nb - 1 do
      let col = b.(j) in
      let best = ref 0.0 in
      for i = 0 to na - 1 do
        best := fmax !best table.(a.(i)).(col)
      done;
      backward := !backward +. !best
    done;
    ((!forward /. float_of_int na) +. (!backward /. float_of_int nb)) /. 2.0
  end

type label = {
  chars : chars;
  tokens : int array;  (* ids into the side's token vocabulary, after [drop_noise] *)
}

(* Prepares one side's labels, interning their tokens; the vocabulary
   comes back prepared, in first-occurrence order. *)
let prepare_side labels =
  let ids = Hashtbl.create 64 and vocab = ref [] in
  let id t =
    match Hashtbl.find_opt ids t with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids t i;
      vocab := t :: !vocab;
      i
  in
  let prepared =
    Array.map (fun l -> { chars = prepare l; tokens = Array.of_list (List.map id (drop_noise (tokenize l))) }) labels
  in
  (prepared, Array.of_list (List.rev_map prepare !vocab))

let c_label_pairs = Obs.counter "matcher.label_pairs"

(* One label pair runs an edit-distance DP over the two names plus a
   trigram merge and a token-table match: order a hundred
   node-visit-equivalent units, for the executor's parallelism gate. *)
let label_pair_units = 100.0

let pair_table ?(exec = Executor.sequential) ?synonyms sources targets =
  let src, src_tokens = prepare_side sources and tgt, tgt_tokens = prepare_side targets in
  let tokens = Array.map (fun a -> Array.map (token_score synonyms a) tgt_tokens) src_tokens in
  let score a b =
    (0.8 *. soft_match tokens a.tokens b.tokens)
    +. (0.1 *. trigram_chars a.chars b.chars)
    +. (0.1 *. edit_chars a.chars b.chars)
  in
  let nt = Array.length tgt in
  let cost_hint = float_of_int (Array.length src * nt) *. label_pair_units in
  (* lint: allow blocking-under-lock — reachable under the catalog shard and Dataset memo locks; the fan-out never blocks on the pool (try_lock or sequential fallback) and scoring is pure compute over tables filled before it *)
  Executor.map_array ~cost_hint exec
    (fun a ->
      Obs.add c_label_pairs nt;
      Array.map (score a) tgt)
    src
