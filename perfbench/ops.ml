(* Seeded op streams for the three workloads, with their reference
   answers.

   A stream is what the listener receives: NDJSON request lines, and
   nothing else. Each workload is a warm-up (sent once per server
   set-up and counted in [setup_s]) and a pass (the timed unit; the
   load loop repeats whole passes). Every pass ends in
   the KB state it started from, so the reference answer of each
   position is the same on every pass. *)

open Rw_logic
open Randworlds
module Prng = Rw_mc.Prng
module Json = Rw_service.Json
module Service = Rw_service.Service

type op =
  | Load of string  (** inline KB text *)
  | Query of { src : string; asks : string }
      (** [asks]: the first-asked variant of [src], whose cache entry
          answers it; [src] itself for every query but hot-repeat's
          variants *)
  | Update of Service.update_action * string

let ask src = Query { src; asks = src }

(* The ops a seed generates: cheap and syntactic. *)
type plan = {
  store : bool;  (** serve with [--store] *)
  warmup_ops : op array;
  pass_ops : op array;
}

(* What a query's reply must carry: the [result] object and [engine]
   name of {!Rw_service.Protocol.json_of_answer}, notes excluded (MC
   notes hold wall-clock strings). *)
type expected = { engine : string; result : string }

type step = { op : op; expect : expected option }

(* A plan with its reference answers. *)
type t = { plan : plan; warmup : step array; pass : step array }

let workloads = [ "hot-repeat"; "cold-dispatch"; "belief-churn" ]

let line = function
  | Load kb -> Json.(to_string (Obj [ ("op", String "load_kb"); ("kb", String kb) ]))
  | Query { src; _ } -> Json.(to_string (Obj [ ("op", String "query"); ("query", String src) ]))
  | Update (action, src) ->
    let a = match action with Service.Assert -> "assert" | Retract -> "retract" in
    Json.(
      to_string
        (Obj
           [
             ("op", String "session_update");
             ("action", String a);
             ("src", String src);
           ]))

(* Loads and updates take the listener's write lock; the load loop
   sends them alone, so every query of a pass meets one KB state. *)
let barrier = function Query _ -> false | Load _ | Update _ -> true

let is_op = function Query _ | Update _ -> true | Load _ -> false

let expected_of_answer a =
  let j = Rw_service.Protocol.json_of_answer a in
  {
    engine = a.Answer.engine;
    result =
      Json.to_string (Option.value ~default:Json.Null (Json.member "result" j));
  }

(* The reference: the engine dispatch itself, outside the service, on
   the KB the service holds. One artifact per KB state, as the
   service's compiled tier has; answers are bit-identical with or
   without it. *)
module Reference = struct
  type r = {
    tracker : Service.t;  (** KB bookkeeping only: no caches, no artifacts *)
    artifacts : (string, Rw_compile.Compiled_kb.t) Hashtbl.t;  (** by KB digest *)
  }

  let create () =
    {
      tracker =
        Service.create
          ~config:
            { Service.default_config with cache_capacity = 0; compiled_capacity = 0 }
          ();
      artifacts = Hashtbl.create 8;
    }

  let kb r =
    match Service.kb r.tracker with Some kb -> kb | None -> failwith "no KB"

  let apply r = function
    | Load text -> (
      match Service.load_kb_string r.tracker text with
      | Ok () -> ()
      | Error e -> failwith ("reference load: " ^ e))
    | Update (action, src) -> (
      match Service.update_src r.tracker action src with
      | Ok _ -> ()
      | Error e -> failwith ("reference update: " ^ e))
    | Query _ -> ()

  (* Answers are memoised per KB digest and query text: passes repeat
     their queries, and a pass returns to the KB state it started in. *)
  let answer r memo src =
    let kb = kb r in
    let digest = Canonical.digest kb in
    match Hashtbl.find_opt memo (digest, src) with
    | Some e -> e
    | None ->
      let compiled =
        match Hashtbl.find_opt r.artifacts digest with
        | Some c -> c
        | None ->
          let c = Rw_compile.Compiled_kb.compile kb in
          Hashtbl.add r.artifacts digest c;
          c
      in
      let e = expected_of_answer (Engine.degree_of_belief ~compiled ~kb (Parser.formula_exn src)) in
      Hashtbl.add memo (digest, src) e;
      e
end

(* Walk the warm-up and one pass, applying mutations and answering
   queries. Computed before any timing. *)
let with_reference plan =
  let r = Reference.create () and memo = Hashtbl.create 512 in
  let steps ops =
    Array.map
      (fun op ->
        Reference.apply r op;
        match op with
        | Query { asks; _ } -> { op; expect = Some (Reference.answer r memo asks) }
        | Load _ | Update _ -> { op; expect = None })
      ops
  in
  let warmup = steps plan.warmup_ops in
  { plan; warmup; pass = steps plan.pass_ops }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let pick rng a = a.(Prng.int rng (Array.length a))
let str = Pretty.to_string
let unary_preds kb = List.filter_map (fun (p, n) -> if n = 1 then Some p else None) (Vocab.of_formula kb).Vocab.preds

(* ------------------------------------------------------------------ *)
(* hot-repeat                                                         *)
(* ------------------------------------------------------------------ *)

(* One zoo KB (KB_hep, Example 5.8) stays resident. The working set is
   [hot_queries] distinct questions about its individuals and some
   unmentioned ones, each also asked as two syntactic variants with
   the same canonical digest; it fits the default 1024-entry LRU, so
   after warm-up every timed reply is an LRU hit. *)
let hot_queries = 240
let hot_extra_constants = [| "Ann"; "Bob"; "Cal"; "Dee"; "Fay" |]

let variants q =
  let commuted =
    match q with
    | Syntax.And (a, b) -> Syntax.And (b, a)
    | Syntax.Or (a, b) -> Syntax.Or (b, a)
    | q -> Syntax.And (q, Syntax.True)
  in
  let d = Canonical.digest q in
  List.filter (fun v -> Canonical.digest v = d) [ Syntax.Not (Syntax.Not q); commuted ]

let hot_repeat seed =
  let rng = Prng.create seed in
  let kb = Rw_kbzoo.Kbzoo.hep_full () in
  let preds = Array.of_list (unary_preds kb) in
  let consts =
    Array.append (Array.of_list (Vocab.constants (Vocab.of_formula kb))) hot_extra_constants
  in
  let literal () =
    let a = Syntax.pred (pick rng preds) [ Syntax.const (pick rng consts) ] in
    if Prng.bool rng then a else Syntax.Not a
  in
  let query () =
    match Prng.int rng 3 with
    | 0 -> literal ()
    | 1 -> Syntax.And (literal (), literal ())
    | _ -> Syntax.Or (literal (), literal ())
  in
  let seen = Hashtbl.create 512 in
  let rec draw acc n =
    if n = 0 then List.rev acc
    else
      let q = query () in
      let d = Canonical.digest q in
      if Hashtbl.mem seen d then draw acc n
      else begin
        Hashtbl.add seen d ();
        draw (q :: acc) (n - 1)
      end
  in
  let base = draw [] hot_queries in
  let pass =
    Array.of_list
      (List.concat_map
         (fun q -> List.map (fun v -> Query { src = str v; asks = str q }) (q :: variants q))
         base)
  in
  shuffle rng pass;
  {
    store = false;
    warmup_ops = Array.of_list (Load (str kb) :: List.map (fun q -> ask (str q)) base);
    pass_ops = pass;
  }

(* ------------------------------------------------------------------ *)
(* cold-dispatch                                                      *)
(* ------------------------------------------------------------------ *)

(* Fuzz-generator KBs, each loaded inline and followed by a query no
   earlier request asked. Cases (a KB and one query) come from a frozen
   corpus ([cold.corpus], written by [make_corpus.exe]) that records,
   for each case, the engine that signed its answer and the words that
   a fresh compile plus dispatch allocated. The seed draws a fixed
   count of cases from each cell below, so every seed asks the same mix
   of engines and costs. The labels are frozen so that the inputs do
   not change with the program under test. The maxent cells sit on the
   corpus's cost clusters; the median query falls in the middle one, so
   [query_p50_ms] is a dispatch time, not a listener time.

   The corpus stops at 3e7 words (about 100 ms on a 2-vCPU Xeon VM):
   past that, and past its vocabulary cap, single enum and Monte-Carlo
   cases cost 0.5 s to 30 s there, so one draw would decide a run. Monte-Carlo never
   signs below the cap and has no cell. The top cell holds more than
   the ten slowest queries of a pass, so the p90 tail falls inside it. *)
type cell = { engine : string; lo : float; hi : float; count : int }

let cold_cells =
  List.map
    (fun (engine, lo, hi, count) -> { engine; lo; hi; count })
    [
      ("maxent", 0.0, 1e5, 23);
      ("maxent", 1e5, 1e6, 10);
      ("maxent", 1e6, 2e6, 35);
      ("maxent", 2e6, 2e7, 12);
      ("maxent", 2e7, 3e7, 15);
      ("independence", 0.0, 1e6, 2);
      ("enum", 1e6, 3e7, 2);
      ("rules", 0.0, 3e7, 1);
    ]

let corpus_max_words = 3e7

(* The corpus vocabulary cap: at most two constants and two unary
   predicates, and one unary beside the binary predicate. *)
let within_cap kb q =
  let v = Vocab.of_formulas [ kb; q ] in
  let arity n = List.length (List.filter (fun (_, a) -> a = n) v.Vocab.preds) in
  let unary = arity 1 and binary = arity 2 in
  List.length (Vocab.constants v) <= 2 && unary <= 2 && (binary = 0 || unary <= 1)

type case = { signer : string; words : float; kb_text : string; query_text : string }

(* Draw [n] corpus candidates from the fuzz generator's stream for
   [seed]; keep those inside the cap and the cells' word range, with
   what a fresh artifact and one dispatch cost. *)
let corpus_cases ~seed ~n =
  let rng = Prng.create seed in
  List.filter_map
    (fun _ ->
      let kb_text = str (Syntax.conj (Rw_fuzz.Gen.kb_of_rng rng ~max_size:3)) in
      let q = Rw_fuzz.Gen.query_of_rng rng in
      match Kb_file.of_string kb_text with
      | Ok kb when Validate.is_well_formed kb && within_cap kb q ->
        let w0 = Gc.minor_words () in
        let a = Engine.degree_of_belief ~compiled:(Rw_compile.Compiled_kb.compile kb) ~kb q in
        let words = Gc.minor_words () -. w0 in
        if Answer.definitive a && words < corpus_max_words then
          Some { signer = a.Answer.engine; words; kb_text; query_text = str q }
        else None
      | _ -> None)
    (List.init n Fun.id)

let case_line c = Printf.sprintf "%s\t%.0f\t%s\t%s" c.signer c.words c.kb_text c.query_text

let read_corpus path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.map (fun l ->
         match String.split_on_char '\t' l with
         | [ signer; words; kb_text; query_text ] ->
           { signer; words = float_of_string words; kb_text; query_text }
         | _ -> failwith ("bad corpus line: " ^ l))

let default_corpus = "perfbench/cold.corpus"

let cold_dispatch ?(corpus = default_corpus) seed =
  let rng = Prng.create seed in
  let cases = Array.of_list (read_corpus corpus) in
  let drawn =
    List.concat_map
      (fun cell ->
        let pool =
          Array.of_list
            (List.filter
               (fun c -> c.signer = cell.engine && cell.lo <= c.words && c.words < cell.hi)
               (Array.to_list cases))
        in
        if Array.length pool < cell.count then failwith "cold-dispatch: corpus cell too small";
        shuffle rng pool;
        Array.to_list (Array.sub pool 0 cell.count))
      cold_cells
    |> Array.of_list
  in
  shuffle rng drawn;
  {
    store = false;
    warmup_ops = [||];
    pass_ops =
      Array.of_list
        (List.concat_map (fun c -> [ Load c.kb_text; ask c.query_text ]) (Array.to_list drawn));
  }

(* ------------------------------------------------------------------ *)
(* belief-churn                                                       *)
(* ------------------------------------------------------------------ *)

(* KB_hep's statistics plus [churn_individuals] patients with seeded
   evidence, behind a durable store. [churn_definite] patients are
   jaundiced with fever, so KB_hep's strict statistic decides their
   hepatitis and the rules engine signs it; every other patient has
   evidence on two of Jaun/Fever/Tall, never both Jaun and Fever. A
   pass asserts the missing fact of one other patient, asks the 48
   queries, retracts the fact and asks them again, [churn_updates]
   times. Each update re-keys the definite patients' answers and
   evicts the rest; retracting returns to an earlier digest, so the
   store serves what the update evicted. Shapes and counts are fixed and only their
   contents are seeded, so every seed carries the same KB size, query
   mix and store traffic. *)
let churn_individuals = 16
let churn_definite = 2
let churn_updates = 4
let churn_preds = [| "Jaun"; "Fever"; "Tall" |]

let belief_churn seed =
  let rng = Prng.create seed in
  let person i = Printf.sprintf "P%02d" i in
  let atom p i = Syntax.pred p [ Syntax.const (person i) ] in
  let patients = Array.init churn_individuals Fun.id in
  shuffle rng patients;
  let definite = Array.sub patients 0 churn_definite in
  let others = Array.sub patients churn_definite (churn_individuals - churn_definite) in
  (* Evidence of the others: polarity per predicate, one left out. A
     positive Jaun and a positive Fever never meet. *)
  let sign = Array.init churn_individuals (fun _ -> Array.init 3 (fun _ -> Prng.bool rng)) in
  let missing = Array.make churn_individuals 2 in
  Array.iter
    (fun i ->
      missing.(i) <- Prng.int rng 3;
      if sign.(i).(0) && sign.(i).(1) then sign.(i).(1) <- false)
    others;
  let literal k i = if sign.(i).(k) then atom churn_preds.(k) i else Syntax.Not (atom churn_preds.(k) i) in
  let facts =
    List.concat_map
      (fun i ->
        if Array.mem i definite then [ atom "Jaun" i; atom "Fever" i ]
        else List.filter_map (fun k -> if k = missing.(i) then None else Some (literal k i)) [ 0; 1; 2 ])
      (List.init churn_individuals Fun.id)
  in
  let kb = Syntax.conj (Rw_kbzoo.Kbzoo.hep_full () :: facts) in
  let pick_others n =
    let a = Array.copy others in
    shuffle rng a;
    Array.to_list (Array.sub a 0 n)
  in
  let queries =
    List.map (fun i -> atom "Hep" i) (Array.to_list definite)
    @ List.map (fun i -> atom "Hep" i) (pick_others 14)
    @ List.map (fun i -> Syntax.Not (atom "Hep" i)) (pick_others 14)
    @ List.map2 (fun i j -> Syntax.And (atom "Hep" i, atom "Tall" j)) (pick_others 14) (pick_others 14)
    @ List.map2 (fun i j -> Syntax.And (atom "Hep" i, atom "Jaun" j)) (pick_others 4) (pick_others 4)
  in
  let queries = Array.of_list (List.map (fun q -> ask (str q)) queries) in
  shuffle rng queries;
  let queries = Array.to_list queries in
  let pass_ops =
    List.concat_map
      (fun i ->
        (* Asserting the missing fact keeps the patient undecided. *)
        let k = missing.(i) in
        if k < 2 && sign.(i).(1 - k) then sign.(i).(k) <- false;
        let f = str (literal k i) in
        (Update (Service.Assert, f) :: queries) @ (Update (Service.Retract, f) :: queries))
      (pick_others churn_updates)
  in
  let pass_ops = Array.of_list pass_ops in
  {
    store = true;
    warmup_ops = Array.append [| Load (str kb) |] pass_ops;
    pass_ops;
  }

let plan ?corpus workload seed =
  match workload with
  | "hot-repeat" -> hot_repeat seed
  | "cold-dispatch" -> cold_dispatch ?corpus seed
  | "belief-churn" -> belief_churn seed
  | w -> invalid_arg ("unknown workload " ^ w)

let generate ?corpus workload seed = with_reference (plan ?corpus workload seed)

(* The byte stream the server receives over one warm-up and one pass. *)
let ndjson plan =
  let b = Buffer.create 4096 in
  Array.iter
    (fun op ->
      Buffer.add_string b (line op);
      Buffer.add_char b '\n')
    (Array.append plan.warmup_ops plan.pass_ops);
  Buffer.contents b
