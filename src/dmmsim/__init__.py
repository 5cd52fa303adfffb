"""Link-level simulator and mutual-information audit toolkit for a
rotation-keyed two-stream BPSK scheme over complex AWGN.

Each public name is imported from the module that defines it, e.g.
``from dmmsim.receiver import run_point``; importing the package itself
loads no submodule."""

__version__ = "0.1.0"
