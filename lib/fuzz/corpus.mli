(** The on-disk reproducer corpus.

    One file per finding: a `//` comment header (seed, cell, failure
    class, divergence summary, shrink ratio) followed by the shrunk
    Tiny-C program — directly replayable with [gisc <file> --simulate]
    or [gisc check <file>] since the lexer skips comments. *)

val write_all : dir:string -> Fuzz.finding list -> string list
