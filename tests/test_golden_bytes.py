"""Result bytes of the forward-chain commands, pinned as SHA-256 digests.

The per-step reference loops in test_engine.py call the same ``kernel.sample``
as the engine, so a drift in the draws themselves would pass them; these
digests were recorded from an earlier tree and catch any change in a byte
of ``trajectory.csv``, ``trace.csv`` or ``couple.json``, and of the
``stationary``, ``diagnose`` and ``verify`` result files at one seed.  The ``repr`` of
``coupled_backward_cost``, which no command writes, is pinned the same way.
Regenerate with ``PYTHONPATH=src python tests/test_golden_bytes.py`` only
for a change that is meant to alter the draws, and say so.
"""

import hashlib
from pathlib import Path

import pytest

import obsdriven as od
from obsdriven import cli, engine

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
FORWARD = sorted(MODELS)
# the persistent logit of the benchmark's backward workload
MODELS["logit-persistent"] = od.ModelSpec(od.BernoulliLogit(), od.LinearLink(
    CM(0.8), od.AffineAbsMap(0.0, (0.8,), True), CM(-0.2), order=1), U01)
# the logit model's link on the probit kernel, whose report carries the probit rate
MODELS["probit"] = od.ModelSpec(od.BernoulliProbit(), od.LinearLink(
    CM(0.5), od.AffineAbsMap(0.0, (0.8,), True), CM(-0.2), order=1), U01)
SEEDS = (5, 2024)
FILES = {"simulate": ("trajectory.csv",), "couple": ("trace.csv", "couple.json"),
         "stationary": ("measure.csv", "stationary.json"), "diagnose": ("wstats.csv", "regeneration.json"),
         "verify": ("report.json", "report.txt")}
# the stationary models of the backward workload, the certify models, and the probit model,
# whose report no other digest covers, at one seed
ONE_SEED_CASES = ([("stationary", name) for name in ("ingarch-x", "logit-persistent", "loc-ar")]
         + [("diagnose", name) for name in FORWARD]
         + [("verify", name) for name in FORWARD + ["probit"]])
ONE_SEED = 5

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
    "stationary/ingarch-x/5": {
        "measure.csv": "60c6362dd12e8e51657797cdbe6ad07b9896e6c14bb579d710393af911f0b7a6",
        "stationary.json": "dbbbb1fa4bedb70622ad01fb80110049ca1f4aa3826bad2d8bc29d11a3d8fbe7",
    },
    "stationary/logit-persistent/5": {
        "measure.csv": "670a214009eb1496e57696e86eeaa307869c71193170b8d400f6fd1020dbf04e",
        "stationary.json": "ae8423194808176002a0d42a330ca071f77b5cf3fd9ed649eb12588713a55cab",
    },
    "stationary/loc-ar/5": {
        "measure.csv": "bcf029a42e47cfe324b7c0db87e17a9c678dd99d824558153e7c788a03954eae",
        "stationary.json": "54d011f0d87bb8eef63af8cc5a87593b55db338acf54fbfc3ecf5f2fca7a3e1c",
    },
    "diagnose/garch/5": {
        "wstats.csv": "00aad47adfd1078e451f33daac34758e39e9ca460843c32719093a018a0938a9",
        "regeneration.json": "f3945e7a12a670de22d16263eed19688e8a477997f3b1c58b49078a379aa65af",
    },
    "diagnose/ingarch-x/5": {
        "wstats.csv": "12a3ea964aeff2233b82e54713258cd0e4c20760282b842b6835da499333c414",
        "regeneration.json": "f3945e7a12a670de22d16263eed19688e8a477997f3b1c58b49078a379aa65af",
    },
    "diagnose/loc-ar/5": {
        "wstats.csv": "56129773a4a6b5620b9fa6f8186f2f827d1b2c74cc470c5be44c16c42415c132",
        "regeneration.json": "c083f340eb0f6664b9ad66f58bbaea3f1c94c3811ab11cbc5ad6e93fc994413a",
    },
    "diagnose/logit/5": {
        "wstats.csv": "6b327c1f13f95c7d99f88e50e719e56fddbf960bc0ab5ac17121832e684187f4",
        "regeneration.json": "867669cce98691bebaf93bbe20aa8b0b8f23752625be2f2ca9279c3c8a0fee76",
    },
    "verify/garch/5": {
        "report.json": "89e24d784d6aee6a3efa75027020fe3e3229783620be6da686ea9e1ae96bef3a",
        "report.txt": "02e76dad2046ac10ea974b892817974a80fa27be5d9fe312087c69a6384267c9",
    },
    "verify/ingarch-x/5": {
        "report.json": "38ea87ba3dfebde66731e150a47ab4e487a56f7f2c31a15f2f659a4d69075d27",
        "report.txt": "fde6d8c1a16cf2c4ec8b5225d271cf70c84b3f1abc78ec8dfcce8fc480f4bec3",
    },
    "verify/loc-ar/5": {
        "report.json": "1ed83f1994543b0706a01203f2f80df3ae91965f3adad4603f9b11c50c9a207a",
        "report.txt": "ba615c198c6974c4a1f856b2c8b25bc9120447f43490d0b19b34b03b62b2e29d",
    },
    "verify/logit/5": {
        "report.json": "5f63d3741cf4ad5af324b7a37db3bf1a551bc83c15bc8ff0ba778152ac03f9f6",
        "report.txt": "d137f73a41c5c235d6ae988f44e1a22af891c833efa87a1be7f9441d9b7101f5",
    },
    "verify/probit/5": {
        "report.json": "e9b391ad903c8f07edb40c5063a80e431897515d48a374c7dec92b7846ff46b4",
        "report.txt": "d137f73a41c5c235d6ae988f44e1a22af891c833efa87a1be7f9441d9b7101f5",
    },
}


# the benchmark's coupled_backward_cost op: starts 0 and 10, n = 200, 2000 replicas
COST_CASES = [(name, seed) for name in ("ingarch-x", "logit-persistent") for seed in SEEDS]
GOLDEN_COST = {
    "ingarch-x/5": "5.0590798751827325e-76",
    "ingarch-x/2024": "1.1025601072561509e-76",
    "logit-persistent/5": "1.0782324532347698e-14",
    "logit-persistent/2024": "6.804130077521183e-16",
}


def _coupled_backward_cost(name: str, seed: int) -> str:
    model, n = MODELS[name], 200
    path = od.generate_path(model.covariates, -n, -1, od.split_seed(seed, engine._SEED_ENV))
    return repr(engine.coupled_backward_cost(model, 0.0, 10.0, n, path, 2000, seed))


def _manifest(command: str, model: od.ModelSpec, seed: int) -> dict:
    s0 = model.start_state()
    params = {"simulate": {"s0": s0, "t_min": 0, "t_max": 1999},
              "couple": {"s0": s0, "s0_prime": s0 + 10.0, "horizon": 400},
              "stationary": {}, "verify": {}, "diagnose": {"length": 2000}}[command]
    return cli.validate_manifest({"command": command, "model": model.to_dict(), "params": params, "seed": seed})


def _digests(command: str, name: str, seed: int, out_dir: Path) -> dict:
    code, _ = cli.run_manifest(_manifest(command, MODELS[name], seed), out_dir)
    assert code == 0
    return {f: hashlib.sha256((out_dir / f).read_bytes()).hexdigest() for f in FILES[command]}


@pytest.mark.parametrize("command", ("couple", "simulate"))
@pytest.mark.parametrize("name", FORWARD)
@pytest.mark.parametrize("seed", SEEDS)
def test_forward_result_bytes_match_recorded_digests(tmp_path, command, name, seed):
    assert _digests(command, name, seed, tmp_path) == GOLDEN[f"{command}/{name}/{seed}"]


@pytest.mark.parametrize("command, name", ONE_SEED_CASES)
def test_stationary_and_diagnose_result_bytes_match_recorded_digests(tmp_path, command, name):
    key = f"{command}/{name}/{ONE_SEED}"
    assert _digests(command, name, ONE_SEED, tmp_path) == GOLDEN[key]


@pytest.mark.parametrize("name, seed", COST_CASES)
def test_coupled_backward_cost_matches_recorded_repr(name, seed):
    assert _coupled_backward_cost(name, seed) == GOLDEN_COST[f"{name}/{seed}"]


if __name__ == "__main__":
    import tempfile

    cases = [(c, n, s) for c in ("couple", "simulate") for n in FORWARD for s in SEEDS]
    cases += [(c, n, ONE_SEED) for c, n in ONE_SEED_CASES]
    with tempfile.TemporaryDirectory() as tmp:
        for command, name, seed in cases:
            key = f"{command}/{name}/{seed}"
            print(f'    "{key}": {{')
            for f, h in _digests(command, name, seed, Path(tmp) / key).items():
                print(f'        "{f}": "{h}",')
            print("    },")
    print("GOLDEN_COST = {")
    for name, seed in COST_CASES:
        print(f'    "{name}/{seed}": "{_coupled_backward_cost(name, seed)}",')
    print("}")
