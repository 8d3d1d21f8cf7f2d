(** Driving the Integer Difference Logic solver directly: encode the
    worked example of Section 4.2 and recover the paper's schedule.

    The trace (thread-local counters in parentheses):
    {v
        t1              t2
                        c3: W(y)
                        c4: W(x)
                        c5: R(x)
        c1: W(x)
        c2: R(y)
                        c6: R(x)
    v}
    Recorded flow dependences: c4 -> c5, c1 -> c6, c3 -> c2.

    Run with: dune exec examples/solver_demo.exe *)

open Dlsolver

let () =
  (* order variables O(c1..c6), indexed 0..5 *)
  let o c = c - 1 in
  let name = [| "c1"; "c2"; "c3"; "c4"; "c5"; "c6" |] in
  let hard =
    [
      (* flow dependences *)
      Idl.lt (o 4) (o 5);   (* O(c4) < O(c5) *)
      Idl.lt (o 1) (o 6);   (* O(c1) < O(c6) *)
      Idl.lt (o 3) (o 2);   (* O(c3) < O(c2) *)
      (* thread-local orders *)
      Idl.lt (o 1) (o 2);
      Idl.lt (o 3) (o 4);
      Idl.lt (o 4) (o 5);
      Idl.lt (o 5) (o 6);
    ]
  in
  (* noninterference on x between (c4 -> c5) and (c1 -> c6):
     O(c5) < O(c1)  \/  O(c6) < O(c4) *)
  let clauses = [ [| Idl.lt (o 5) (o 1); Idl.lt (o 6) (o 4) |] ] in
  match Idl.solve (Idl.make ~nvars:6 ~hard ~clauses) with
  | Sat (model, stats) ->
    let order =
      List.sort
        (fun a b -> compare (model.(o a), a) (model.(o b), b))
        [ 1; 2; 3; 4; 5; 6 ]
    in
    Printf.printf "replay schedule: %s\n"
      (String.concat " < " (List.map (fun c -> name.(o c)) order));
    Printf.printf "(paper, Section 4.2: c3 < c4 < c5 < c1 < c2 ... with c6 after c1)\n";
    Printf.printf "solver: %d decisions, %d backtracks, %d theory conflicts\n"
      stats.decisions stats.backtracks stats.theory_conflicts;
    (* verify the noninterference disjunct chosen *)
    if model.(o 5) < model.(o 1) then
      print_endline "chose O(c5) < O(c1): t2's dependence on x scheduled first"
    else print_endline "chose O(c6) < O(c4)"
  | Unsat _ -> print_endline "unsat (unexpected)"
  | Aborted _ -> print_endline "aborted (unexpected)"
