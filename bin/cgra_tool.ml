let () = exit (Cmdliner.Cmd.eval' Cgra_cli.cmd)
