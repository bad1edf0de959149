"""Published JSON schema for the pipeline report."""

_NUMBER_OR_NULL = {"type": ["number", "null"]}
_REALS = {"type": "array", "items": {"type": "number"}}


def _closed(properties: dict, optional=()) -> dict:
    """A closed object schema: every key in ``properties`` but ``optional`` is required."""
    return {
        "type": "object",
        "required": [key for key in properties if key not in optional],
        "properties": properties,
        "additionalProperties": False,
    }


PIPELINE_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "votebound pipeline report",
    **_closed(
        {
            "bound_report": _closed(
                {
                    "m": {"type": "integer", "minimum": 1},
                    "delta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                    "posterior": {"type": "string"},
                    "gibbs_train_error": {"type": "number", "minimum": 0, "maximum": 1},
                    "kl_posterior_prior": {"type": "number", "minimum": 0},
                    "epsilon": {"type": "number", "minimum": 0},
                    "lambda_hat": {"type": "number"},
                    "train_kl_budget": {"type": "number", "minimum": 0},
                    "error_bound_raw": _NUMBER_OR_NULL,
                    "error_bound_clipped": _NUMBER_OR_NULL,
                    "abstain_bound": _NUMBER_OR_NULL,
                    "mistake_bound": _NUMBER_OR_NULL,
                    "degenerate": {"type": "boolean"},
                }
            ),
            "game_solution": {
                "oneOf": [
                    {"type": "null"},
                    _closed(
                        {
                            "v": {"type": "integer", "minimum": 1},
                            "value": {"type": "number"},
                            "lower_bound": {"type": "number"},
                            "g_star": _REALS,
                            "z_star": _REALS,
                        }
                    ),
                ]
            },
            "abstain_solution": {
                "oneOf": [
                    {"type": "null"},
                    _closed(
                        {
                            "alpha": {"type": "number", "exclusiveMinimum": 0},
                            "trivial": {"type": "boolean"},
                            "w": {"type": ["integer", "null"]},
                            "budget": {"type": "number"},
                            "value_exact": {"type": "number"},
                            "value_lower": {"type": "number"},
                            "value_upper": {"type": "number"},
                            "p_alg": _REALS,
                            "loss_formula": {"type": "number"},
                            "loss_no_abstain": {"type": "number"},
                        }
                    ),
                ]
            },
            "examples": {
                "type": "array",
                "items": _closed(
                    {
                        "index": {"type": "integer", "minimum": 0},
                        "vote": {"type": "number", "minimum": -1, "maximum": 1},
                        "prediction": {"type": "number", "minimum": -1, "maximum": 1},
                        "abstain_probability": {"type": "number", "minimum": 0, "maximum": 1},
                        "label": {"type": "number", "enum": [-1, 0, 1]},
                    }
                ),
            },
            "fallback": {"type": "boolean"},
            "seed": {"type": ["integer", "null"]},
            "tool": _closed({"name": {"type": "string"}, "version": {"type": "string"}}),
        },
        optional=("tool",),
    ),
}
