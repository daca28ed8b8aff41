(** SARIF 2.1.0 export of checker diagnostics.

    One run, one tool driver ("pointsto"), one rule descriptor per
    registered checker (whether or not it fired), and one result per
    diagnostic.  The output is deterministic: diagnostics are emitted in
    {!Diagnostic.compare} order and the JSON printer is stable, so two
    identical analyses produce byte-identical documents. *)

val to_string : tool_version:string -> Diagnostic.t list -> string
(** The document, pretty-printed with two-space indentation.  It ends
    in ["}\n\n"]: the printer's newline, then one more. *)
