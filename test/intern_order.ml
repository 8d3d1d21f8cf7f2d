(* Prints the v3 logs and space of the map-key workloads, recorded at
   scale 1 and seed 1 under each variant.  With [--intern-first] it first
   interns 100 unrelated names and the workloads' own map keys in reverse
   order, as a process that ran other work before would have.  test/dune
   runs it both ways and requires the same output: a log must not depend
   on the process's intern ids.  The modeled overhead is left out: the
   contention stripe ({!Metrics.Cost.stripe_of}) still hashes the field's
   intern id. *)

open Light_core

let () =
  if Array.mem "--intern-first" Sys.argv then begin
    for i = 0 to 99 do
      ignore (Runtime.Loc.mapkey_fld (Runtime.Value.VStr (Printf.sprintf "other%d" i)))
    done;
    for k = 3 downto 0 do
      ignore (Runtime.Loc.mapkey_fld (Runtime.Value.VInt k))
    done
  end;
  List.iter
    (fun name ->
      let bm = Option.get (Workloads.by_name name) in
      List.iter
        (fun variant ->
          let r =
            Light.record ~variant ~sched:(Workloads.scheduler ~seed:1 bm) ~seed:1
              (Workloads.program ~scale:1 bm)
          in
          Printf.printf "== %s %s: %d longs\n%s" name (Recorder.variant_name variant)
            r.space_longs (Log.to_string r.log))
        [ Light.v_basic; Light.v_o1; Light.v_both ])
    [ "stamp-vacation"; "tomcat-kernel" ]
