(* The traced run: the op stream replayed in-process through the
   layers' public functions, in listener order, one request at a time.

   Each request records spans at the layer boundaries — name, start,
   end, parent and request id — kept in memory and written out at the
   end. Queries hop through a 2-domain pool as the listener's do; the
   task notes when it starts, which gives the queue wait. Counts come
   from deltas of [Service.stats], [Instr.snapshot] and [Store.stats];
   because one request runs at a time, they repeat exactly for a
   seed. Allocation is the minor-heap words of the domain that ran the
   call. *)

open Rw_logic
open Randworlds
module Json = Rw_service.Json
module Protocol = Rw_service.Protocol
module Service = Rw_service.Service
module Store = Rw_store.Store
module Pool = Rw_pool.Pool

let now = Monotonic_clock.now
let us t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e3

type span = { rid : int; name : string; parent : string; t0 : int64; t1 : int64 }

(* Spans and observations of one request on one domain. *)
type acc = { mutable spans : span list; mutable obs : (string * float) list }

let acc () = { spans = []; obs = [] }
let observe a key v = a.obs <- (key, v) :: a.obs

let timed a ~rid ~parent ?alloc name f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w = Gc.minor_words () -. w0 in
  a.spans <- { rid; name; parent; t0; t1 } :: a.spans;
  Option.iter (fun key -> observe a (key ^ ".alloc_words") w) alloc;
  r

let tier = function
  | Service.Computed -> "none"
  | Service.Cached -> "lru"
  | Service.Stored -> "store"
  | Service.Degraded -> "degraded"

let origin_key = function
  | Service.Computed -> "computed"
  | Service.Cached -> "cached"
  | Service.Stored -> "stored"
  | Service.Degraded -> "degraded"

type ctx = {
  svc : Service.t;
  pool : Pool.t;
  mutable next_rid : int;
  mutable spans : span list;
  mutable obs : (string * float) list;
  mutable checked : int;
  mutable mismatches : int;
}

let merge ctx (a : acc) =
  ctx.spans <- List.rev_append a.spans ctx.spans;
  ctx.obs <- List.rev_append a.obs ctx.obs

let fail ctx = ctx.mismatches <- ctx.mismatches + 1

let request ctx (step : Ops.step) line =
  let rid = ctx.next_rid in
  ctx.next_rid <- rid + 1;
  let a = acc () in
  let r0 = now () in
  let t ?alloc name f = timed a ~rid ~parent:"request" ?alloc name f in
  let json = t ~alloc:"json.decode" "json.decode" (fun () -> Json.of_string line) in
  let req = t "protocol.request" (fun () -> Result.bind json Protocol.request_of_json) in
  ctx.checked <- ctx.checked + 1;
  let payload =
    match req with
    | Ok (Protocol.Query { src; _ }) ->
      let submit = now () in
      let fut =
        Pool.async ctx.pool (fun () ->
            let start = now () in
            let w = acc () in
            let t ?alloc name f = timed w ~rid ~parent:"pool" ?alloc name f in
            let f = t ~alloc:"logic.parse" "logic.parse" (fun () -> Parser.formula src) in
            let q0 = now () in
            let res =
              t ~alloc:"service.query" "service.query" (fun () ->
                  Result.bind f (Service.query ctx.svc))
            in
            let elapsed_ms = us q0 (now ()) /. 1e3 in
            let payload =
              t "protocol.answer" (fun () ->
                  match res with
                  | Ok (ans, origin) ->
                    observe w ("service." ^ origin_key origin ^ "_us") (elapsed_ms *. 1e3);
                    let cached = origin = Service.Cached || origin = Service.Stored in
                    let fields =
                      match Protocol.json_of_answer ~cached ~elapsed_ms ans with
                      | Json.Obj fs -> fs @ [ ("tier", Json.String (tier origin)) ]
                      | _ -> []
                    in
                    Protocol.ok_reply [ ("answer", Json.Obj fields) ]
                  | Error e -> Protocol.error_reply e)
            in
            (start, w, payload, f, res))
      in
      let start, w, payload, f, res = Pool.await fut in
      let back = now () in
      a.spans <- { rid; name = "pool"; parent = "request"; t0 = submit; t1 = back } :: a.spans;
      observe a "pool.queue_wait_us" (us submit start);
      merge ctx w;
      (match (res, step.Ops.expect) with
      | Ok (ans, origin), Some e ->
        let got = Ops.expected_of_answer ans in
        if origin = Service.Degraded || got <> e then fail ctx
      | _ -> fail ctx);
      (* [Service.query] digests on the request path; timed apart. *)
      Result.iter
        (fun f ->
          ignore
            (timed a ~rid ~parent:"side" ~alloc:"canonical.digest" "canonical.digest" (fun () ->
                 Canonical.digest f)))
        f;
      payload
    | Ok (Protocol.Session_update { action; src; _ }) -> (
      match t "session.update" (fun () -> Service.update_src ctx.svc action src) with
      | Ok o -> Protocol.ok_reply (Protocol.update_outcome_fields o)
      | Error e ->
        fail ctx;
        Protocol.error_reply e)
    | Ok (Protocol.Load_kb { text = Some text; _ }) -> (
      match t "logic.kb_load" (fun () -> Service.load_kb_string ctx.svc text) with
      | Ok () -> Protocol.ok_reply [ ("loaded", Json.Bool true) ]
      | Error e ->
        fail ctx;
        Protocol.error_reply e)
    | Ok _ | Error _ ->
      fail ctx;
      Protocol.error_reply "unexpected request"
  in
  let reply = t ~alloc:"json.encode" "json.encode" (fun () -> Json.to_string payload) in
  observe a "json.reply_bytes" (float (String.length reply));
  a.spans <- { rid; name = "request"; parent = ""; t0 = r0; t1 = now () } :: a.spans;
  merge ctx a

type result = {
  ops_per_s : float;  (** queries and updates per second over the timed passes *)
  metrics : (string * float * string) list;  (** name, value, unit *)
  counts : (string * float) list;  (** the deterministic subset *)
  checked : int;
  mismatches : int;
  spans : span list;  (** oldest first *)
}

(* Self time: a span's duration minus what its children cover. Spans of
   one request nest without overlap, so the children's durations sum. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> "" && s.parent <> "side" then begin
        let k = (s.rid, s.parent) in
        let d = Int64.sub s.t1 s.t0 in
        Hashtbl.replace child k (Int64.add d (Option.value ~default:0L (Hashtbl.find_opt child k)))
      end)
    spans;
  List.map
    (fun s ->
      let covered = Option.value ~default:0L (Hashtbl.find_opt child (s.rid, s.name)) in
      (s, Int64.sub (Int64.sub s.t1 s.t0) covered))
    spans

let write_spans path spans =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "rid\tname\tparent\tstart_ns\tend_ns\tself_ns\n";
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc "%d\t%s\t%s\t%Ld\t%Ld\t%Ld\n" s.rid s.name s.parent s.t0 s.t1 self)
        (self_times spans))

let engine_delta before after =
  List.filter_map
    (fun (e : Instr.entry) ->
      let b =
        List.find_opt (fun (x : Instr.entry) -> x.engine = e.engine) before
        |> Option.fold ~none:(0, 0.0) ~some:(fun (x : Instr.entry) -> (x.count, x.seconds))
      in
      let n = e.count - fst b in
      if n > 0 then Some (e.engine, n, e.seconds -. snd b) else None)
    after

let open_store p = match Store.open_ p with Ok (s, _) -> s | Error e -> failwith e

(* The store a belief-churn agent brings from earlier sessions: a fresh
   store at [path], filled by one in-process service playing the
   stream's warm-up. *)
let populate ~path (stream : Ops.t) =
  (try Sys.remove path with Sys_error _ -> ());
  let store = open_store path in
  let svc = Service.create ~store () in
  let ok = function Ok _ -> () | Error e -> failwith ("populate: " ^ e) in
  Array.iter
    (fun s ->
      match s.Ops.op with
      | Ops.Load text -> ok (Service.load_kb_string svc text)
      | Ops.Update (action, src) -> ok (Service.update_src svc action src)
      | Ops.Query { src; _ } -> ok (Service.query_src svc src))
    stream.warmup;
  Store.close store

(* [?store_path] names the store file the replay opens. *)
let run ?store_path (stream : Ops.t) ~passes =
  let store = Option.map open_store store_path in
  let svc = Service.create ?store () in
  let engines0 = Instr.snapshot () in
  Pool.run ~jobs:2 (fun pool ->
      let ctx =
        { svc; pool; next_rid = 0; spans = []; obs = []; checked = 0; mismatches = 0 }
      in
      let play steps = Array.iter (fun s -> request ctx s (Ops.line s.Ops.op)) steps in
      play stream.Ops.warmup;
      let t0 = now () in
      for _ = 1 to passes do
        play stream.pass
      done;
      let elapsed_s = us t0 (now ()) /. 1e6 in
      let ops = passes * List.length (List.filter (fun s -> Ops.is_op s.Ops.op) (Array.to_list stream.pass)) in
      let st = Service.stats svc in
      let engines = engine_delta engines0 (Instr.snapshot ()) in
      let spans = List.rev ctx.spans in
      let span_vals name =
        List.filter_map (fun s -> if s.name = name then Some (us s.t0 s.t1) else None) spans
      in
      let obs key = List.filter_map (fun (k, v) -> if k = key then Some v else None) ctx.obs in
      let med xs = if xs = [] then nan else Stats.median xs in
      let mean xs = if xs = [] then nan else Stats.sum xs /. float (List.length xs) in
      let ratio a b = if a + b = 0 then nan else float a /. float (a + b) in
      let cache = st.Service.cache in
      let compiled = Option.get st.Service.compiled in
      let session = st.Service.session in
      let store_stats = Option.map Store.stats store in
      let recovery_ms =
        Option.map
          (fun s ->
            Store.close s;
            let t0 = now () in
            let s, _ = Result.get_ok (Store.open_ (Option.get store_path)) in
            let ms = us t0 (now ()) /. 1e3 in
            Store.close s;
            ms)
          store
      in
      let alloc layer = (layer ^ ".alloc_words", mean (obs (layer ^ ".alloc_words")), "words") in
      let n_ops = float (max 1 (List.length (span_vals "json.decode"))) in
      let metrics =
        [
          ("json.decode_us", med (span_vals "json.decode"), "us");
          ("json.encode_us", med (span_vals "json.encode"), "us");
          ("json.reply_bytes", med (obs "json.reply_bytes"), "bytes");
          ("protocol.request_us", med (span_vals "protocol.request"), "us");
          ("protocol.answer_us", med (span_vals "protocol.answer"), "us");
          ("logic.parse_us", med (span_vals "logic.parse"), "us");
          ("logic.kb_load_ms", med (span_vals "logic.kb_load") /. 1e3, "ms");
          ("canonical.digest_us", med (span_vals "canonical.digest"), "us");
          ("service.query_us", med (span_vals "service.query"), "us");
          ("service.lru_hit_ratio", ratio cache.Rw_service.Lru.hits cache.misses, "ratio");
          ("service.cached_us", med (obs "service.cached_us"), "us");
          ("service.stored_us", med (obs "service.stored_us"), "us");
          ("service.computed_ms", med (obs "service.computed_us") /. 1e3, "ms");
          ("compiled.compiles", float compiled.Service.compiles, "count");
          ("compiled.compile_ms", compiled.compile_ms_total, "ms");
          ( "compiled.hit_ratio",
            ratio compiled.compiled_cache.Rw_service.Lru.hits compiled.compiled_cache.misses,
            "ratio" );
          ("engine.dispatches", float (List.fold_left (fun n (_, c, _) -> n + c) 0 engines), "count");
          ("engine.ms", 1e3 *. List.fold_left (fun n (_, _, s) -> n +. s) 0.0 engines, "ms");
        ]
        @ List.concat_map
            (fun (e, c, s) ->
              [
                ("engine." ^ e ^ ".dispatches", float c, "count");
                ("engine." ^ e ^ ".ms", s *. 1e3, "ms");
              ])
            engines
        @ [
            ("pool.queue_wait_us", med (obs "pool.queue_wait_us"), "us");
            ("pool.tasks", float (List.length (span_vals "pool")), "count");
            ("session.update_ms", med (span_vals "session.update") /. 1e3, "ms");
            ("session.revalidated", float session.Service.revalidated, "count");
            ("session.evicted", float session.update_evicted, "count");
            ("session.artifact_carries", float session.artifact_carries, "count");
          ]
        @ (match (store_stats, recovery_ms) with
          | Some s, Some r ->
            [
              ("store.probe_hit_ratio", ratio s.Store.probe_hits s.probe_misses, "ratio");
              ("store.appends_per_op", float s.appends /. n_ops, "ratio");
              ("store.appends", float s.appends, "count");
              ("store.probe_hits", float s.probe_hits, "count");
              ("store.file_bytes", float s.file_bytes, "bytes");
              ("store.recovery_ms", r, "ms");
            ]
          | _ -> [])
        @ List.map alloc
            [ "json.decode"; "json.encode"; "logic.parse"; "canonical.digest"; "service.query" ]
      in
      (* Work counts, and ratios of them. Encoding is left out: replies
         carry elapsed milliseconds, whose printed length varies. *)
      let counts =
        List.filter_map
          (fun (name, v, unit) ->
            if List.mem unit [ "count"; "words"; "ratio" ] && name <> "json.encode.alloc_words"
            then Some (name, v)
            else None)
          metrics
        @ [ ("cache.hits", float cache.hits); ("cache.misses", float cache.misses) ]
      in
      {
        ops_per_s = float ops /. elapsed_s;
        metrics;
        counts;
        checked = ctx.checked;
        mismatches = ctx.mismatches;
        spans;
      })
