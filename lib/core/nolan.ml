(* Nolan's two-party atomic swap (bitcointalk, 2013): the original
   hashlock/timelock protocol from the paper's introduction.

   Alice (the leader) locks X under h = H(s) on chain 1 with timelock t1;
   Bob, having verified SC1, locks Y under the same h on chain 2 with
   timelock t2 < t1; Alice redeems SC2 (revealing s); Bob redeems SC1
   with s before t1. This is exactly the single-leader protocol on the
   two-vertex graph, so the implementation is a guard over {!Herlihy} —
   the timelock structure (leader's contract expires last) and the crash
   hazard are identical. *)

module Ac2t = Ac3_contract.Ac2t

type config = Herlihy.config

let default_config = Herlihy.default_config

(* The two-vertex case of {!Herlihy}. Raises [Invalid_argument],
   prefixed with [name], if the graph is not a simple two-party swap or
   Herlihy refuses it. *)
let guard name graph =
  if Ac2t.classify graph <> Ac2t.Simple_swap then
    invalid_arg (name ^ ": graph is not a two-party swap")

let get name = function Ok x -> x | Error e -> invalid_arg (name ^ ": " ^ e)

let launch universe ~config ~graph ~participants ?hooks ?verify () =
  guard "Nolan.launch" graph;
  get "Nolan.launch"
    (Herlihy.launch universe ~config ~graph ~participants ?hooks ?verify ~obs_name:"nolan" ())

let execute universe ~config ~graph ~participants ?hooks ?verify () =
  guard "Nolan.execute" graph;
  get "Nolan.execute"
    (Herlihy.execute universe ~config ~graph ~participants ?hooks ?verify ~obs_name:"nolan" ())
