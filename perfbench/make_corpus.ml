(* Regenerate the cold-dispatch corpus:

   make_corpus.exe [SEED] [CANDIDATES] > perfbench/cold.corpus

   One line per kept case: signing engine, allocated words, KB text and
   query text, tab-separated. *)

let () =
  let arg i d = if Array.length Sys.argv > i then int_of_string Sys.argv.(i) else d in
  List.iter
    (fun c -> print_endline (Perfbench.Ops.case_line c))
    (Perfbench.Ops.corpus_cases ~seed:(arg 1 2006) ~n:(arg 2 3000))
