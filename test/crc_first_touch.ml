(* Two domains compute a CRC-32 as the very first thing a fresh
   process does — the first use of the store's checksum table. Both
   sleep until just before a shared instant (so the scheduler can wake
   them on different cores), then spin to it and race. Exits 0 when
   both return the standard check value, 1 (naming the failure)
   otherwise. A race on first use can only show in a fresh process, so
   test_store.ml runs this executable repeatedly instead of calling
   [crc32] in-process. *)

let check_value = 0xCBF43926l (* CRC-32 of "123456789" *)

let racer ~at () =
  Unix.sleepf (Float.max 0.0 (at -. Unix.gettimeofday () -. 0.002));
  while Unix.gettimeofday () < at do
    ()
  done;
  let buf = Bytes.of_string "123456789" in
  match Rw_store.Store.crc32 buf ~pos:0 ~len:(Bytes.length buf) with
  | c when c = check_value -> None
  | c -> Some (Printf.sprintf "wrong checksum %08lx" c)
  | exception e -> Some (Printexc.to_string e)

let () =
  let at = Unix.gettimeofday () +. 0.01 in
  let domains = List.init 2 (fun _ -> Domain.spawn (racer ~at)) in
  match List.filter_map Domain.join domains with
  | [] -> exit 0
  | errs ->
    prerr_endline (String.concat "; " errs);
    exit 1
