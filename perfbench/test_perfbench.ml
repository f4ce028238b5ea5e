(* The benchmark's own checks: a seed regenerates its op stream byte for
   byte, and two traced replays of one seed, each in its own process,
   answer like the reference and give exactly equal counts. *)

open Perfbench

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let counts w seed =
  let ic =
    Unix.open_process_args_in "./bench.exe"
      [| "./bench.exe"; "--workload"; w; "--seed"; string_of_int seed; "--corpus"; "cold.corpus"; "--counts" |]
  in
  let lines = In_channel.input_lines ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> [ "bench.exe failed" ]

let () =
  List.iter
    (fun w ->
      let plan seed = Ops.ndjson (Ops.plan ~corpus:"cold.corpus" w seed) in
      check (w ^ ": same seed, same NDJSON stream") (plan 7 = plan 7);
      check (w ^ ": another seed, another stream") (plan 7 <> plan 8);
      let c1 = counts w 7 and c2 = counts w 7 in
      check (w ^ ": replay answers match the reference") (List.mem "mismatches 0" c1);
      check (w ^ ": replay counts repeat exactly") (List.length c1 > 1 && c1 = c2))
    Ops.workloads;
  if !failures > 0 then exit 1
