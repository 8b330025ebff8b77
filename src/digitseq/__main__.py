from .console import main

main.main(prog_name="python -m digitseq")
