//! `spothost markets` — the price book and calibration summary.

use spothost_analysis::outln;
use spothost_analysis::table::TextTable;
use spothost_market::prelude::*;

pub fn run() -> Result<(), String> {
    let catalog = Catalog::ec2_2015();
    outln!("spot markets (2015 EC2 calibration)\n");
    let mut t = TextTable::new([
        "market",
        "on-demand $/h",
        "max bid $/h",
        "calm spot/od",
        "spikes/day",
        "spike dur",
    ]);
    for market in MarketId::all() {
        let model = calibrated_model(market);
        t.row([
            market.to_string(),
            format!("{:.3}", catalog.on_demand_price(market)),
            format!("{:.3}", catalog.max_bid(market)),
            format!("{:.2}", model.base_ratio),
            format!("{:.2}", model.effective_spike_rate_per_day()),
            model.spike_duration_mean.to_string(),
        ]);
    }
    outln!("{}", t.render());
    outln!(
        "bid cap: {}x on-demand (Amazon's 2015 limit)",
        catalog.max_bid_mult()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn markets_command_succeeds() {
        super::run().unwrap();
    }
}
