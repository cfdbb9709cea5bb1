#!/usr/bin/env python3
"""Run every pipeline on the example configuration and collect the datasets.

Produces, in the output directory:
  - fpi_trace.csv              pump-on transmission transient (resonant chip)
  - fpi_characteristics.json   FSR / finesse numbers for the facet cavity
  - coupler_sweep_T*.csv/json  reflectivity vs pump power per temperature
  - opo_spectrum_delta*.csv    squeezed/antisqueezed spectra per detuning
  - opo_optimal_levels.csv     best levels vs detuning
  - spdc_spectrum_T*_P*.csv    emission spectra per temperature and power
  - homodyne_budget_*.csv      measured squeezing vs residual pump
  - squeeze_ideal.csv / squeeze_photorefractive.csv
  - fit_dn_T*.json             index-shift law recovered from the sweeps
  - fit_fpi.json               index excursion recovered from the trace

The fit stages consume the simulated (noisy) sweeps and the trace, closing
the loop from forward model to parameter recovery.  The fit input paths of
the configuration keep their file names and are read from the output
directory; when that moves a path, every stage runs on a copy of the
configuration with the moved paths, written to
generate_datasets_config.yaml in the output directory.
"""

import argparse
import copy
import sys
from pathlib import Path

import yaml

from photoref.cli import SUBCOMMANDS, main as cli_main


def config_for(config_path: str, out_dir: str) -> str:
    """Configuration whose fit stages read the files written into ``out_dir``."""
    tree = yaml.safe_load(Path(config_path).read_text(encoding="utf-8")) or {}
    original = copy.deepcopy(tree)
    run = tree.get("run") or {}
    for entry in (run.get("fit_dn") or {}).get("inputs") or []:
        entry["path"] = str(Path(out_dir) / Path(entry["path"]).name)
    fit_fpi = run.get("fit_fpi") or {}
    if fit_fpi.get("input"):
        fit_fpi["input"] = str(Path(out_dir) / Path(fit_fpi["input"]).name)
    if tree == original:
        return config_path
    moved = Path(out_dir) / "generate_datasets_config.yaml"
    moved.parent.mkdir(parents=True, exist_ok=True)
    moved.write_text(yaml.safe_dump(tree, sort_keys=False), encoding="utf-8")
    return str(moved)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--config",
        default=str(Path(__file__).resolve().parent.parent / "configs" / "example.yaml"),
    )
    parser.add_argument("--out", default="out")
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    config = config_for(args.config, args.out)

    for sub in SUBCOMMANDS:
        argv = [sub, "--config", config, "--out", args.out]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        code = cli_main(argv)
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{sub:<16} {status}")
        if code != 0:
            return code
    print(f"\nall datasets written to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
