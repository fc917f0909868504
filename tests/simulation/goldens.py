"""The seven golden NumPy batch-kernel cases and their fingerprints.

Shared by the batch-kernel tests that pin the NumPy path byte for byte
and by the tests that run those cases through other paths (precision
runs, other engines), so the pins do not depend on any one engine's
test file.
"""

import hashlib
import json

from repro.distributions import Exponential, Weibull
from repro.simulation import RaidGroupConfig, RepairPolicyConfig


def hot_config():
    """High failure rates so small fleets produce events quickly."""
    return RaidGroupConfig(
        n_data=3,
        time_to_op=Exponential(2_000.0),
        time_to_restore=Exponential(50.0),
        time_to_latent=Exponential(1_500.0),
        time_to_scrub=Exponential(100.0),
        mission_hours=8_760.0,
    )


def chronology_fingerprint(chronologies) -> str:
    """Canonical sha256 over a fleet's complete chronologies."""
    payload = [
        {
            "ddf_times": c.ddf_times,
            "ddf_types": [k.value for k in c.ddf_types],
            "n_op_failures": c.n_op_failures,
            "n_latent_defects": c.n_latent_defects,
            "n_scrub_repairs": c.n_scrub_repairs,
            "n_restores": c.n_restores,
            "n_checks": c.n_checks,
            "n_policy_repairs": c.n_policy_repairs,
        }
        for c in chronologies
    ]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def golden_batch_cases():
    """The seven pinned (config, n_groups, seed) batch-path cases."""
    base = RaidGroupConfig.paper_base_case()
    hot = hot_config()
    return {
        "base-case": (base, 64, 2007),
        "base-case-2y": (RaidGroupConfig.paper_base_case(mission_hours=17_520.0), 128, 1),
        "raid6-hot": (hot.as_raid6(), 96, 2),
        "kofn-policy": (
            RaidGroupConfig.k_of_n(
                3,
                6,
                time_to_op=Exponential(4_000.0),
                time_to_restore=Weibull(shape=2.0, scale=24.0, location=1.0),
                repair_policy=RepairPolicyConfig(
                    check_interval_hours=168.0, repair_threshold=5
                ),
                mission_hours=8_760.0,
            ),
            96,
            3,
        ),
        "no-latent": (base.without_latent_defects(), 128, 4),
        "hot-600": (hot, 600, 5),
        "fast-scrub": (
            RaidGroupConfig.paper_base_case(
                scrub_characteristic_hours=12.0, mission_hours=17_520.0
            ),
            64,
            6,
        ),
    }


#: sha256 of each golden case's complete chronologies on the NumPy batch
#: kernel.  They pin the batch path byte for byte, so shared helpers,
#: import-time side effects and dispatch changes cannot perturb it
#: unnoticed.  If a deliberate batch-kernel semantic change moves them,
#: regenerate via ``chronology_fingerprint`` in the same commit and say so.
GOLDEN_BATCH_FINGERPRINTS = {
    "base-case": "7bbedfef8c69933d1ecee64695d084481839c97aa10dd8d5ff9b18d90bbe4d50",
    "base-case-2y": "efe4ee782ff822e50cd8ca4b99fd4bd2ca4072d65dce7525344380426772ce72",
    "raid6-hot": "26911871260ee7b13a65ae128472a8ab2f35dcea1031f54d03a2579ca54ae4c7",
    "kofn-policy": "4f5b84218e423b57b74be004c049d4fa3fb4d162a79073a7bb7408b669a32714",
    "no-latent": "5cae430f98c194b55b2ef24657c883c160fe9e5f1d7ddfe33bdba4502e600e08",
    "hot-600": "fdfaf8a0991ac8813bde66feabcf407043f36143e9ed4ca53b2516aaaeed3072",
    "fast-scrub": "82206e4687d163c30104c0d2c05618baa63bd96b3b85a99a1a991d079e423f77",
}
