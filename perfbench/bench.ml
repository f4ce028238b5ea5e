(* The listener benchmark. See README.md for the metrics, the
   workloads and how to run them.

   bench.exe --workload W --seed N --seconds S --trace 0|1
             [--corpus FILE] [--ndjson | --counts]

   Generates the workload's op stream and reference answers from the
   seed, starts [rw serve --listen --jobs 2] several times to measure
   set-up, drives the last server over two connections in a closed
   loop for whole passes until [S] seconds have elapsed, checks every
   reply, and prints one metric per line and a JSON summary last. With
   [--trace 1] it also replays the stream in-process through the
   layers and reports per-layer metrics instead. [--ndjson] prints the
   stream a warm-up and a pass send; [--counts] prints the
   deterministic counts of a one-pass traced replay, without a server. *)

open Perfbench
module Json = Rw_service.Json

let usage () =
  prerr_endline
    "usage: bench.exe --workload (hot-repeat|cold-dispatch|belief-churn) --seed N \
     --seconds S --trace 0|1 [--corpus FILE] [--ndjson | --counts]";
  exit 2

let args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | ("--ndjson" | "--counts") as k :: rest ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) "1";
      go rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

(* The per-layer metrics of the JSON summary: those every workload
   defines. The rest are printed and written to the counts file. *)
let reported_layers =
  [
    "server.overhead_ms"; "trace.ops_per_s"; "json.decode_us"; "json.encode_us";
    "json.reply_bytes"; "protocol.request_us"; "protocol.answer_us"; "logic.parse_us";
    "logic.kb_load_ms"; "canonical.digest_us"; "service.query_us"; "service.lru_hit_ratio";
    "service.computed_ms"; "compiled.compiles"; "compiled.compile_ms"; "compiled.hit_ratio";
    "engine.dispatches"; "engine.ms"; "pool.queue_wait_us"; "pool.tasks";
    "json.decode.alloc_words"; "json.encode.alloc_words"; "logic.parse.alloc_words";
    "canonical.digest.alloc_words"; "service.query.alloc_words";
  ]

(* Set-ups per run, and set-up time is their median: at least
   [min_setups], more while they have taken less than a second in all,
   up to [max_setups]. Cheap set-ups are repeated more, so that their
   median does not hang on a millisecond of process start. *)
let min_setups = 5
let max_setups = 15

(* Timed passes of the traced replay: a fixed count, so its work counts
   repeat exactly. *)
let replay_passes = function "hot-repeat" -> 20 | "belief-churn" -> 4 | _ -> 1

(* Peak RSS is read after this many timed passes, so that runs compare
   memory at equal work: belief-churn's server grows with every update
   it serves. A run too slow to get there reads it at its end. *)
let rss_passes = function "cold-dispatch" -> 3 | _ -> 100

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable ok_ops : int;
  mutable query_ms : float list;  (** round trips, latest first *)
  mutable update_ms : float list;
  mutable overhead_ms : float list;
  mutable tiers : (string * int) list;
}

let tally () =
  {
    attempted = 0;
    failed = 0;
    ok_ops = 0;
    query_ms = [];
    update_ms = [];
    overhead_ms = [];
    tiers = [];
  }

(* Check one reply against its step; record it in [t]. *)
let record t (step : Ops.step) rtt_ms line =
  t.attempted <- t.attempted + 1;
  let reply = Result.to_option (Json.of_string line) in
  let mem k j = Option.bind j (Json.member k) in
  let ok = mem "ok" reply = Some (Json.Bool true) in
  let good =
    match (step.op, step.expect) with
    | Ops.Query _, Some e ->
      let ans = mem "answer" reply in
      let str k = Option.bind (mem k ans) Json.to_str in
      let tier = Option.value ~default:"?" (str "tier") in
      t.tiers <-
        (tier, 1 + Option.value ~default:0 (List.assoc_opt tier t.tiers))
        :: List.remove_assoc tier t.tiers;
      let result = Option.fold ~none:"" ~some:Json.to_string (mem "result" ans) in
      let good = ok && tier <> "degraded" && str "engine" = Some e.engine && result = e.result in
      if good then begin
        t.query_ms <- rtt_ms :: t.query_ms;
        Option.iter
          (fun el -> t.overhead_ms <- (rtt_ms -. el) :: t.overhead_ms)
          (Option.bind (mem "elapsed_ms" ans) Json.to_float)
      end;
      good
    | Ops.Update _, _ ->
      if ok then t.update_ms <- rtt_ms :: t.update_ms;
      ok
    | _ -> ok
  in
  if not good then t.failed <- t.failed + 1
  else if Ops.is_op step.op then t.ok_ops <- t.ok_ops + 1

(* Replies are checked after the pass, so that the client spends as
   little time as possible between a reply and the next request. *)
let drive conns (steps : Ops.step array) t =
  let lines = Array.map (fun s -> Ops.line s.Ops.op ^ "\n") steps in
  let replies = ref [] in
  Client.run conns steps lines ~on_reply:(fun i rtt line -> replies := (i, rtt, line) :: !replies);
  List.iter (fun (i, rtt, line) -> record t steps.(i) rtt line) (List.rev !replies)

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

let fmt_float v = Printf.sprintf "%.6g" v

let tail_note (_, groups) n =
  Printf.sprintf "  (p%g per %d consecutive, median over %d groups; n=%d)" Stats.tail_pct
    Stats.group groups n

let () =
  let a = args () in
  let get k = match Hashtbl.find_opt a k with Some v -> v | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload Ops.workloads) then usage ();
  let seed = int_of_string (get "seed") in
  let plan = Ops.plan ?corpus:(Hashtbl.find_opt a "corpus") workload seed in
  if Hashtbl.mem a "ndjson" then begin
    print_string (Ops.ndjson plan);
    exit 0
  end;
  let stream = Ops.with_reference plan in
  if Hashtbl.mem a "counts" then begin
    let store_path = if plan.store then Some (Filename.temp_file ~temp_dir:"." "perfbench" ".rws") else None in
    let r = Replay.run ?store_path stream ~passes:1 in
    Option.iter Sys.remove store_path;
    List.iter (fun (n, v) -> Printf.printf "%s %.17g\n" n v) r.counts;
    Printf.printf "mismatches %d\n" r.mismatches;
    exit 0
  end;
  let seconds = float_of_string (get "seconds") in
  let trace = get "trace" = "1" in
  let rw = "_build/default/bin/rw.exe" and out = "perfbench/_out" in
  if not (Sys.file_exists rw) then begin
    prerr_endline ("no server binary at " ^ rw);
    exit 2
  end;
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let file name = Filename.concat out (Printf.sprintf "%s-%d.%s" workload seed name) in
  let sock = file "sock" and log = file "server.log" in
  let store_path = if plan.store then Some (file "rws") else None in
  (* A store workload's server restarts on the store of earlier
     sessions, so set-up includes a real recovery scan; each set-up
     starts from a copy of it. The traced replay starts from an empty
     store and computes its warm-up. *)
  let seed_store = file "seed.rws" in
  if plan.store then Replay.populate ~path:seed_store stream;
  let fresh_store () = Option.iter (fun p -> copy_file seed_store p) store_path in
  (try Sys.remove log with Sys_error _ -> ());
  (* Set-up: spawn, listen, load and warm the caches. *)
  let warm = tally () in
  let start () =
    fresh_store ();
    let t0 = Client.now () in
    let srv = Client.spawn ~rw ~sock ~store:store_path ~log in
    let conns = [| Client.connect srv; Client.connect srv |] in
    drive conns stream.warmup warm;
    (srv, conns, Client.s_since t0)
  in
  let rec setup times =
    let srv, conns, s = start () in
    let times = s :: times in
    let n = List.length times in
    if n >= max_setups || (n >= min_setups && Stats.sum times >= 1.0) then (srv, conns, times)
    else begin
      Client.shutdown srv conns;
      setup times
    end
  in
  let srv, conns, setup_times = setup [] in
  (* Timed phase: whole passes until [seconds] have elapsed. *)
  let t = tally () in
  let t0 = Client.now () in
  let passes = ref 0 and rates = ref [] and rss = ref nan in
  while Client.s_since t0 < seconds do
    let ops0 = t.ok_ops and p0 = Client.now () in
    drive conns stream.pass t;
    rates := (float (t.ok_ops - ops0) /. Client.s_since p0) :: !rates;
    incr passes;
    if !passes = rss_passes workload then rss := Client.peak_rss_mb srv
  done;
  let elapsed = Client.s_since t0 in
  let rss = if Float.is_nan !rss then Client.peak_rss_mb srv else !rss in
  Client.shutdown srv conns;
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ sock ];
  (* Median over passes: robust to a burst of outside load. *)
  let ops_per_s = Stats.median !rates in
  let query_ms = t.query_ms and update_ms = t.update_ms in
  let q_tail = Stats.tail query_ms and q_n = List.length query_ms in
  let line name v unit extra = Printf.printf "%-28s %14s %-6s%s\n" name (fmt_float v) unit extra in
  Printf.printf "# %s seed %d: %d passes of %d steps in %.2f s; reference answers excluded from set-up\n"
    workload seed !passes (Array.length stream.pass) elapsed;
  line "setup_s" (Stats.median setup_times) "s" (Printf.sprintf "  (median of %d set-ups)" (List.length setup_times));
  line "ops_per_s" ops_per_s "1/s" "";
  line "query_p50_ms" (Stats.median query_ms) "ms" (Printf.sprintf "  (n=%d)" q_n);
  line "query_tail_ms" (fst q_tail) "ms" (tail_note q_tail q_n);
  if update_ms <> [] then begin
    let u_tail = Stats.tail update_ms and u_n = List.length update_ms in
    line "update_p50_ms" (Stats.median update_ms) "ms" (Printf.sprintf "  (n=%d)" u_n);
    line "update_tail_ms" (fst u_tail) "ms" (tail_note u_tail u_n)
  end;
  line "failed_frac" (float t.failed /. float (max 1 t.attempted)) "ratio"
    (Printf.sprintf "  (%d of %d)" t.failed t.attempted);
  line "peak_rss_mb" rss "MB" "";
  Printf.printf "# reply tiers:%s\n"
    (String.concat "" (List.map (fun (k, n) -> Printf.sprintf " %s=%d" k n) (List.sort compare t.tiers)));
  let overhead = Stats.median t.overhead_ms in
  let failed = ref (t.failed + warm.failed) and attempted = ref (t.attempted + warm.attempted) in
  let metrics =
    if not trace then
      [
        ("setup_s", Stats.median setup_times, "s");
        ("ops_per_s", ops_per_s, "1/s");
        ("query_p50_ms", Stats.median query_ms, "ms");
        ("query_tail_ms", fst q_tail, "ms");
        ("peak_rss_mb", rss, "MB");
      ]
    else begin
      Option.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) store_path;
      let r = Replay.run ?store_path stream ~passes:(replay_passes workload) in
      Replay.write_spans (file "spans.tsv") r.spans;
      failed := !failed + r.mismatches;
      attempted := !attempted + r.checked;
      let gap = (ops_per_s -. r.ops_per_s) /. ops_per_s in
      let layers =
        ("server.overhead_ms", overhead, "ms")
        :: ("trace.ops_per_s", r.ops_per_s, "1/s")
        :: ("trace.overhead_frac", gap, "ratio")
        :: r.metrics
      in
      Printf.printf "# traced replay: %d requests, spans in %s; Instr and compile times are the program's own wall clock\n"
        r.checked (file "spans.tsv");
      List.iter (fun (n, v, u) -> if not (Float.is_nan v) then line n v u "") layers;
      Out_channel.with_open_text (file "counts.txt") (fun oc ->
          List.iter (fun (n, v) -> Printf.fprintf oc "%s %.17g\n" n v) r.counts);
      List.filter (fun (n, _, _) -> List.mem n reported_layers) layers
    end
  in
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then begin
        prerr_endline ("no value for " ^ n);
        exit 1
      end)
    metrics;
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (!failed = 0));
        ("attempted", Json.Int !attempted);
        ("failed", Json.Int !failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string json)
