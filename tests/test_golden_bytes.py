"""Result bytes of the forward-chain commands, pinned as SHA-256 digests.

The per-step reference loops in test_engine.py call the same ``kernel.sample``
as the engine, so a drift in the draws themselves would pass them; these
digests were recorded from an earlier tree and catch any change in a byte
of ``trajectory.csv``, ``trace.csv`` or ``couple.json``.  Regenerate with
``PYTHONPATH=src python tests/test_golden_bytes.py`` only for a change that
is meant to alter the draws, and say so.
"""

import hashlib
from pathlib import Path

import pytest

import obsdriven as od
from obsdriven import cli

CM = od.ConstantMap
U01 = od.IID(od.Uniform(0.0, 1.0))

# the four models of the benchmark's forward-chain workload
MODELS = {
    "ingarch-x": od.ModelSpec(od.Poisson(), od.LinearLink(
        CM(0.4, True), od.AffineAbsMap(0.0, (0.3,), True), CM(1.0, True), order=1, floor=0.0), U01),
    "logit": od.ModelSpec(od.BernoulliLogit(), od.LinearLink(
        CM(0.5), od.AffineAbsMap(0.0, (0.8,), True), CM(-0.2), order=1), U01),
    "garch": od.ModelSpec(od.GarchGaussian(1.0), od.LinearLink(
        CM(0.3, True), od.AffineAbsMap(0.1, (0.2,), True), CM(1.0, True), order=2, floor=1.0), U01),
    "loc-ar": od.ModelSpec(od.Location(od.GaussianNoise(1.0)), od.LinearLink(
        CM(0.5), CM(0.3), CM(0.0), order=1), U01),
}
SEEDS = (5, 2024)
FILES = {"simulate": ("trajectory.csv",), "couple": ("trace.csv", "couple.json")}

GOLDEN = {
    "couple/garch/5": {
        "trace.csv": "5f975b6ef659024871200f1fb00cf1a9fd8023f2acc5f7ce824f0a73b9803db6",
        "couple.json": "7333295513ce5fa9633844c2ea7bccd69011ab487976f2a45b1871b67548bbc4",
    },
    "couple/garch/2024": {
        "trace.csv": "7605f31dc762c929d19d6228e8476e82d3d37f0798f5324661b6e892d848f587",
        "couple.json": "d96ba230c729915be3c161fa931c5653986347d675332431572bb164286b8812",
    },
    "couple/ingarch-x/5": {
        "trace.csv": "f809c5351ab2c335ed80a1910f7a2b55c00780f2b078f7230e87423eb86dc47b",
        "couple.json": "8be833d1b0e732e345ba3b6f5fb768b9b444b523acc4aaf3a7b6d6461feee24f",
    },
    "couple/ingarch-x/2024": {
        "trace.csv": "f3f057de88c3b3e0829429723665ebb64ea3858c787c2411ba36c0fc21257775",
        "couple.json": "20d3694d47ebb793cd54ffab0b6cf31edef02f18e140e63406df240bd193d8fe",
    },
    "couple/loc-ar/5": {
        "trace.csv": "3ae567af28b80f7f1a129b993dea2649c2b5709b3b074ae5c26a343a436ce047",
        "couple.json": "ac66a880478af1f3d8aa93c764542927f7d2013b050946607477c79549af9e54",
    },
    "couple/loc-ar/2024": {
        "trace.csv": "ce7b5a918103392a3176d62f31635e7c6ecb395906065ddd8de0dfbe992a03ad",
        "couple.json": "acfe94d66729a7ce34af0f96e546b40f333c298192ca35c7c719f43641678c48",
    },
    "couple/logit/5": {
        "trace.csv": "abefbe0dba9d521dae7d2520cef5bbfd56a830ac9a0a564771c1de0606a94655",
        "couple.json": "86e470e8bc46c2235211faf9d145dfdba44217549b11397b009469b9edad3080",
    },
    "couple/logit/2024": {
        "trace.csv": "cf9d652a7266086b70c2dc268a575ed11f673c0d084b4a2926f1db3b593bab51",
        "couple.json": "8087e4872eb4b8a1c05398d731dfbf4b54c6d5a2e734274182d1be4acf398461",
    },
    "simulate/garch/5": {
        "trajectory.csv": "1572adc2d8d6ca867a1e80c433c1e163b3505f2301a7195bf83adc2cf4509025",
    },
    "simulate/garch/2024": {
        "trajectory.csv": "9852235c99ecb170addce8f882b37f703e8e23614c32fb98a9db878adcfb7f55",
    },
    "simulate/ingarch-x/5": {
        "trajectory.csv": "ee5be1ddfc3cd156ce20a40fed86f1675c3c4f36050a5b9ac4cbfdb60f4da26d",
    },
    "simulate/ingarch-x/2024": {
        "trajectory.csv": "ec95d94ff82ff496123e9727731117b144cef2e257f0e34f3882e42e567e3a54",
    },
    "simulate/loc-ar/5": {
        "trajectory.csv": "28ee4caac976ed6b3a0311527f8184e97d6988d324147720263b00b590b70c94",
    },
    "simulate/loc-ar/2024": {
        "trajectory.csv": "75f155380c0e96b4fa9bbd819d23e301e3f7f1b5dd9c0c7a7945f66507df0325",
    },
    "simulate/logit/5": {
        "trajectory.csv": "7b91e8d1c8a09ab15bf5952fe6bc3c36efc0641084ca109ba6afd5a5c737b14a",
    },
    "simulate/logit/2024": {
        "trajectory.csv": "583e5e1d61264f54f4c91f94fbb165db27d7e58df18df89b0f37e3239b727b5a",
    },
}


def _manifest(command: str, model: od.ModelSpec, seed: int) -> dict:
    s0 = model.start_state()
    params = ({"s0": s0, "t_min": 0, "t_max": 1999} if command == "simulate"
              else {"s0": s0, "s0_prime": s0 + 10.0, "horizon": 400})
    return cli.validate_manifest({"command": command, "model": model.to_dict(), "params": params, "seed": seed})


def _digests(command: str, name: str, seed: int, out_dir: Path) -> dict:
    code, _ = cli.run_manifest(_manifest(command, MODELS[name], seed), out_dir)
    assert code == 0
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in FILES[command]}


@pytest.mark.parametrize("command", sorted(FILES))
@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("seed", SEEDS)
def test_forward_result_bytes_match_recorded_digests(tmp_path, command, name, seed):
    assert _digests(command, name, seed, tmp_path) == GOLDEN[f"{command}/{name}/{seed}"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for command in sorted(FILES):
            for name in sorted(MODELS):
                for seed in SEEDS:
                    key = f"{command}/{name}/{seed}"
                    print(f'    "{key}": {{')
                    for f, h in _digests(command, name, seed, Path(tmp) / key).items():
                        print(f'        "{f}": "{h}",')
                    print("    },")
