(* The Off/Warn/Reject enforcement policy shared by the defense
   layers.  Verify, Vcost and Audit.Engine each re-export [t] with a
   type equation and keep their own process default; the parsing,
   naming and env-seeding logic lives only here.  A world's override
   is a typed [t option] on its kernel (Kernel.policy). *)

type t = Off | Warn | Reject

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "off" -> Some Off
  | "warn" -> Some Warn
  | "reject" -> Some Reject
  | _ -> None

let name = function Off -> "off" | Warn -> "warn" | Reject -> "reject"

let seed_env var ~parse ~expected ~set =
  match Sys.getenv_opt var with
  | None -> ()
  | Some v -> (
      match parse v with
      | Some p -> set p
      | None -> Fmt.epr "palladium: ignoring %s=%S (expected %s)@." var v expected)
