let link = Logs.Src.create "ispn.link" ~doc:"Link-level events"
let admission = Logs.Src.create "ispn.admission" ~doc:"Admission decisions"
let service = Logs.Src.create "ispn.service" ~doc:"Service establishment"

(* Logs' own filter, without the [Some src] and message closure a call to
   [Logs.info ~src] allocates before it gets to apply it. *)
let enabled src level =
  match Logs.Src.level src with None -> false | Some cur -> level <= cur

let setup ?(level = Logs.Info) () =
  Logs.set_reporter (Logs.format_reporter ());
  List.iter
    (fun src -> Logs.Src.set_level src (Some level))
    [ link; admission; service ]
