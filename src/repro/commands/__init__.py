"""The ``sync-switch`` sub-commands, one module each.

Every module offers ``configure(parser)``, which adds the command's
arguments to its sub-parser, and ``run(args)``, which executes it and
returns the exit code.  :mod:`repro.cli` holds the table that names
them and imports only the module of the command being invoked, so each
module imports the stack its command needs at the top, as usual.
"""
